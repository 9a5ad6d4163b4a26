//! Scheme 1 server.
//!
//! The honest-but-curious party. It holds, per unique keyword, the triple
//! `(f_kw(w), I(w) ⊕ G(r), F(r))` in a B+-tree keyed by the tag, plus the
//! encrypted document blobs in a [`sse_storage::store::DocStore`]. It never
//! sees a keyword, a plaintext, or — until a search reveals one — a PRG
//! nonce. Every request is decoded defensively; malformed input produces an
//! error response, never a panic.
//!
//! Sharding, group commit, snapshot reads, checkpoints and recovery are
//! the [`ShardedIndex`] core's; this module supplies the Scheme 1 entry
//! (the masked array and `F(r)` per tag), its request handler and its
//! reveal path. The index metadata is the capacity [`Geometry`]: every
//! mutation pipeline holds it for reading, and `ReplaceIndex` rewrites it
//! under the write lock, fully quiesced.

use super::protocol::{self, Request, UpdateEntry};
use crate::error::{Result, SseError};
use crate::proto_common;
use crate::sharded::{IndexOptions, SchemeEntry, ShardData, ShardedIndex};
use sse_index::bitset::DocBitSet;
use sse_index::bptree::BpTree;
use sse_net::link::Service;
use sse_net::wire::{WireReader, WireWriter};
use sse_primitives::prg::Prg;
use sse_storage::StorageError;
use std::ops::Deref;
use std::path::Path;
use std::result::Result as StdResult;
use std::sync::atomic::{AtomicU64, Ordering};

/// One searchable representation as stored by the server.
#[derive(Clone)]
pub struct Entry {
    /// `I(w) ⊕ G(r)`.
    masked_index: Vec<u8>,
    /// Serialized `F(r)`.
    f_r: Vec<u8>,
}

/// Index width geometry: the Scheme 1 index metadata.
#[derive(Clone, Copy)]
pub struct Geometry {
    capacity_docs: u64,
    index_bytes: usize,
}

impl Geometry {
    fn new(capacity_docs: u64) -> Self {
        Geometry {
            capacity_docs,
            index_bytes: (capacity_docs as usize).div_ceil(8),
        }
    }
}

/// The Scheme 1 [`SchemeEntry`]: masked bit arrays under a capacity
/// geometry. Snapshots and keyword-map metas persist the capacity, and
/// every stored array must be exactly the geometry's width.
pub struct Scheme1Entry;

impl SchemeEntry for Scheme1Entry {
    type Value = Entry;
    type Meta = Geometry;
    const PREFIX: &'static str = "scheme1";
    /// v2: the body leads with the `last_op_seq` covered by the snapshot.
    const MAGIC: &'static [u8; 8] = b"SSE1IDX2";

    fn put_value(entry: &Entry, w: &mut WireWriter) {
        w.put_bytes(&entry.masked_index);
        w.put_bytes(&entry.f_r);
    }

    fn get_value(r: &mut WireReader<'_>, geometry: &Geometry) -> Result<Entry> {
        let masked_index = r.get_bytes()?.to_vec();
        if masked_index.len() != geometry.index_bytes {
            return Err(SseError::Storage(StorageError::Corrupt {
                what: "scheme1 index entry",
                detail: format!(
                    "entry width {} != expected {}",
                    masked_index.len(),
                    geometry.index_bytes
                ),
            }));
        }
        let f_r = r.get_bytes()?.to_vec();
        Ok(Entry { masked_index, f_r })
    }

    fn put_meta(geometry: &Geometry, w: &mut WireWriter) {
        w.put_u64(geometry.capacity_docs);
    }

    fn check_meta(r: &mut WireReader<'_>, geometry: &Geometry) -> Result<()> {
        let capacity = r.get_u64()?;
        if capacity != geometry.capacity_docs {
            return Err(SseError::Storage(StorageError::Corrupt {
                what: "scheme1 index",
                detail: format!(
                    "capacity {capacity} does not match server capacity {}",
                    geometry.capacity_docs
                ),
            }));
        }
        Ok(())
    }

    /// Each shard's log is internally ordered across capacity migrations,
    /// so a replayed `ReplaceIndex` moves the geometry too.
    fn replay(shard: &mut ShardData<Self>, geometry: &mut Geometry, record: &[u8]) -> Result<()> {
        match protocol::decode_request(record)? {
            Request::ApplyUpdates(entries) => merge_updates(shard, &entries),
            Request::ReplaceIndex { capacity, entries } => {
                replace_entries(shard, &entries);
                *geometry = Geometry::new(capacity);
            }
            _ => {
                return Err(SseError::Storage(StorageError::Corrupt {
                    what: "scheme1 index journal",
                    detail: "journal holds a non-mutating request".to_string(),
                }))
            }
        }
        Ok(())
    }
}

/// XOR-merge updates into a shard (inserting fresh keywords).
fn merge_updates(shard: &mut ShardData<Scheme1Entry>, entries: &[UpdateEntry]) {
    for UpdateEntry { tag, delta, f_r } in entries {
        shard.note_mutated(*tag);
        match shard.tree.get_mut(tag) {
            Some(entry) => {
                // I(w)⊕G(r) ⊕ (U(w)⊕G(r)⊕G(r')) = I'(w)⊕G(r')
                for (d, s) in entry.masked_index.iter_mut().zip(delta) {
                    *d ^= s;
                }
                entry.f_r.clone_from(f_r);
            }
            None => {
                // Fresh keyword: I(w) = 0, so the delta *is* I'(w)⊕G(r').
                shard.tree.insert(
                    *tag,
                    Entry {
                        masked_index: delta.clone(),
                        f_r: f_r.clone(),
                    },
                );
            }
        }
    }
}

/// Replace a shard's whole tree with `entries` (`ReplaceIndex`).
fn replace_entries(shard: &mut ShardData<Scheme1Entry>, entries: &[UpdateEntry]) {
    shard.note_cleared();
    let mut tree = BpTree::new();
    for UpdateEntry { tag, delta, f_r } in entries {
        shard.note_mutated(*tag);
        tree.insert(
            *tag,
            Entry {
                masked_index: delta.clone(),
                f_r: f_r.clone(),
            },
        );
    }
    shard.tree = tree;
}

/// Counters the experiments read out-of-band (they are *not* part of the
/// protocol surface).
#[derive(Clone, Copy, Debug, Default)]
pub struct Scheme1ServerStats {
    /// Tag lookups served (search round 1 + updates).
    pub tree_lookups: u64,
    /// Total B+-tree nodes visited across lookups.
    pub tree_nodes_visited: u64,
    /// Searches completed (round 2).
    pub searches: u64,
    /// Update entries applied.
    pub updates_applied: u64,
    /// Documents stored.
    pub docs_stored: u64,
}

/// Lock-free cells behind [`Scheme1ServerStats`], so concurrent requests
/// can count without taking any index lock.
#[derive(Default)]
struct StatsCells {
    tree_lookups: AtomicU64,
    tree_nodes_visited: AtomicU64,
    searches: AtomicU64,
    updates_applied: AtomicU64,
    docs_stored: AtomicU64,
}

/// The Scheme 1 server: request handling over a [`ShardedIndex`], whose
/// operational surface (checkpoints, health, repair, counters) it derefs
/// to.
pub struct Scheme1Server {
    index: ShardedIndex<Scheme1Entry>,
    stats: StatsCells,
}

impl Deref for Scheme1Server {
    type Target = ShardedIndex<Scheme1Entry>;

    fn deref(&self) -> &Self::Target {
        &self.index
    }
}

impl Scheme1Server {
    /// In-memory server for a database of at most `capacity_docs`
    /// documents, with a single index shard.
    #[must_use]
    pub fn new_in_memory(capacity_docs: u64) -> Self {
        Self::over(ShardedIndex::in_memory(Geometry::new(capacity_docs), 1))
    }

    /// Durable server persisting under `dir` with default options (see
    /// [`Scheme1Server::open`]).
    ///
    /// # Errors
    /// As [`Scheme1Server::open`].
    pub fn open_durable(capacity_docs: u64, dir: &Path) -> Result<Self> {
        Self::open(capacity_docs, IndexOptions::durable(dir))
    }

    /// Server for a database of at most `capacity_docs` documents, opened
    /// as `opts` describe. A durable directory is recovered as
    /// [`ShardedIndex`] documents; its snapshot or keyword-map capacity
    /// must equal `capacity_docs`.
    ///
    /// # Errors
    /// Storage errors while opening or recovering, a corrupt or
    /// capacity-mismatched index, a corrupt journal record, or a backend
    /// mismatch.
    pub fn open(capacity_docs: u64, opts: IndexOptions) -> Result<Self> {
        Ok(Self::over(ShardedIndex::open(
            Geometry::new(capacity_docs),
            opts,
        )?))
    }

    fn over(index: ShardedIndex<Scheme1Entry>) -> Self {
        Scheme1Server {
            index,
            stats: StatsCells::default(),
        }
    }

    /// Observability counters.
    #[must_use]
    pub fn stats(&self) -> Scheme1ServerStats {
        Scheme1ServerStats {
            tree_lookups: self.stats.tree_lookups.load(Ordering::Relaxed),
            tree_nodes_visited: self.stats.tree_nodes_visited.load(Ordering::Relaxed),
            searches: self.stats.searches.load(Ordering::Relaxed),
            updates_applied: self.stats.updates_applied.load(Ordering::Relaxed),
            docs_stored: self.stats.docs_stored.load(Ordering::Relaxed),
        }
    }

    /// Reset the observability counters.
    pub fn reset_stats(&self) {
        self.stats.tree_lookups.store(0, Ordering::Relaxed);
        self.stats.tree_nodes_visited.store(0, Ordering::Relaxed);
        self.stats.searches.store(0, Ordering::Relaxed);
        self.stats.updates_applied.store(0, Ordering::Relaxed);
        self.stats.docs_stored.store(0, Ordering::Relaxed);
    }

    /// Byte size of every (masked) index array.
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.index.meta().index_bytes
    }

    /// Export the stored searchable representations
    /// `(f_kw(w), I(w) ⊕ G(r), F(r))` — this *is* the set `S` in the
    /// adversary's view (Definition 2), merged across shards in tag order.
    /// Used by the security harness.
    #[must_use]
    pub fn export_representations(&self) -> Vec<([u8; 32], Vec<u8>, Vec<u8>)> {
        let guards = self.index.lock_all_data();
        let mut out: Vec<([u8; 32], Vec<u8>, Vec<u8>)> = guards
            .iter()
            .flat_map(|s| {
                s.tree
                    .iter()
                    .map(|(tag, e)| (*tag, e.masked_index.clone(), e.f_r.clone()))
            })
            .collect();
        out.sort_unstable_by_key(|a| a.0);
        out
    }

    /// Serve one request without exclusive access — the entry point the
    /// multi-tenant daemon's workers call concurrently. Searches run
    /// against immutable snapshots; mutations pipeline through the
    /// per-shard group committers.
    pub fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        self.handle_shared_with(request, Vec::new())
    }

    /// [`Self::handle_shared`] with a recycled response buffer: the hot
    /// `SearchReveal` branch encodes its result into `scratch` (capacity
    /// reused, contents discarded) so a steady-state reveal response
    /// costs no allocation when the caller recycles buffers through a
    /// pool. Every other request kind ignores the scratch.
    pub fn handle_shared_with(&self, request: &[u8], scratch: Vec<u8>) -> Vec<u8> {
        match protocol::decode_request(request) {
            Ok(Request::SearchReveal { tag, seed }) => match self.reveal_one(&tag, &seed) {
                Ok(docs) => proto_common::encode_result_with(&docs, scratch),
                Err(msg) => proto_common::encode_error(&msg),
            },
            Ok(req) => self.handle_request(req),
            Err(e) => proto_common::encode_error(&e.to_string()),
        }
    }

    /// Apply an `UPDATE_MANY` batch: every part must be a mutation
    /// (`PutDocs` or `ApplyUpdates`). All parts are decoded and validated
    /// first, then the documents are stored and the updates journaled as
    /// one cross-shard batch, applied all-or-nothing with respect to
    /// racing searches (all touched shards' snapshots swap inside one
    /// epoch window).
    pub fn apply_batch(&self, parts: &[&[u8]]) -> Vec<u8> {
        let mut docs: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut entries: Vec<UpdateEntry> = Vec::new();
        for part in parts {
            match protocol::decode_request(part) {
                Ok(Request::PutDocs(d)) => docs.extend(d),
                Ok(Request::ApplyUpdates(e)) => entries.extend(e),
                Ok(_) => {
                    return proto_common::encode_error(
                        "batch parts must be mutations (PutDocs / ApplyUpdates)",
                    )
                }
                Err(e) => return proto_common::encode_error(&e.to_string()),
            }
        }
        let geometry = self.index.meta();
        if let Err(msg) =
            check_doc_ids(&geometry, &docs).and_then(|()| check_widths(&geometry, &entries))
        {
            return proto_common::encode_error(&msg);
        }
        if let Err(resp) = self.put_docs(&docs) {
            return resp;
        }
        self.apply_updates(&geometry, entries)
    }

    /// Store validated documents, counting them.
    fn put_docs(&self, docs: &[(u64, Vec<u8>)]) -> StdResult<(), Vec<u8>> {
        self.index.put_docs(docs)?;
        self.stats
            .docs_stored
            .fetch_add(docs.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Apply validated update entries: group per shard (preserving input
    /// order within each shard), then run the group-commit pipeline. The
    /// caller's geometry read guard spans the whole pipeline, so geometry
    /// writers (`ReplaceIndex`, checkpoint) always see it quiesced.
    fn apply_updates(&self, geometry: &Geometry, entries: Vec<UpdateEntry>) -> Vec<u8> {
        if entries.is_empty() {
            return proto_common::encode_ack();
        }
        let groups = self.index.group_by_shard(entries, |e| &e.tag);
        let idxs: Vec<usize> = groups.keys().copied().collect();
        let result = self.index.commit_mutation(
            &idxs,
            |i| protocol::encode_apply_updates(&groups[&i]),
            |i, shard| {
                merge_updates(shard, &groups[&i]);
                self.stats
                    .updates_applied
                    .fetch_add(groups[&i].len() as u64, Ordering::Relaxed);
            },
            geometry,
        );
        self.index.respond(result)
    }

    fn handle_replace_index(&self, capacity: u64, entries: Vec<UpdateEntry>) -> Vec<u8> {
        let new = Geometry::new(capacity);
        if let Some(bad) = entries.iter().find(|e| e.delta.len() != new.index_bytes) {
            return proto_common::encode_error(&format!(
                "entry width {} != new index width {}",
                bad.delta.len(),
                new.index_bytes
            ));
        }
        // Migration must not lose keywords: the replacement set must cover
        // every currently stored tag. The geometry write lock quiesces
        // every mutation pipeline, so the data trees are stable while we
        // validate and replace.
        let mut geometry = self.index.meta_mut();
        let new_tags: std::collections::HashSet<[u8; 32]> = entries.iter().map(|e| e.tag).collect();
        for shard in self.index.lock_all_data() {
            if shard.tree.iter().any(|(tag, _)| !new_tags.contains(tag)) {
                return proto_common::encode_error(
                    "replacement index is missing a stored keyword tag",
                );
            }
        }
        // ReplaceIndex rewrites every shard (a shard with no entries must
        // still clear), so the batch spans all N shards.
        let n = self.index.num_shards();
        let mut groups: Vec<Vec<UpdateEntry>> = (0..n).map(|_| Vec::new()).collect();
        for entry in entries {
            groups[self.index.shard_for(&entry.tag)].push(entry);
        }
        let idxs: Vec<usize> = (0..n).collect();
        let result = self.index.commit_mutation(
            &idxs,
            |i| protocol::encode_replace_index(capacity, &groups[i]),
            |i, shard| replace_entries(shard, &groups[i]),
            &new,
        );
        if result.is_ok() {
            *geometry = new;
        }
        self.index.respond(result)
    }

    fn handle_request(&self, req: Request) -> Vec<u8> {
        match req {
            Request::PutDocs(docs) => {
                // Held across the store so a concurrent `ReplaceIndex`
                // cannot shrink the capacity under a checked id.
                let geometry = self.index.meta();
                if let Err(msg) = check_doc_ids(&geometry, &docs) {
                    return proto_common::encode_error(&msg);
                }
                match self.put_docs(&docs) {
                    Ok(()) => proto_common::encode_ack(),
                    Err(resp) => resp,
                }
            }
            Request::GetNonces(tags) => {
                let items: Vec<Option<Vec<u8>>> = tags
                    .iter()
                    .map(|tag| self.lookup(tag, |e| e.map(|e| e.f_r.clone())))
                    .collect();
                protocol::encode_nonces(&items)
            }
            Request::ApplyUpdates(entries) => {
                let geometry = self.index.meta();
                if let Err(msg) = check_widths(&geometry, &entries) {
                    return proto_common::encode_error(&msg);
                }
                self.apply_updates(&geometry, entries)
            }
            Request::SearchFind(tag) => self.lookup(&tag, |e| {
                protocol::encode_found(e.map(|e| e.f_r.as_slice()))
            }),
            Request::SearchReveal { tag, seed } => match self.reveal_one(&tag, &seed) {
                Ok(docs) => proto_common::encode_result(&docs),
                Err(msg) => proto_common::encode_error(&msg),
            },
            Request::SearchRevealMany(items) => {
                let mut results: Vec<Vec<(u64, Vec<u8>)>> = Vec::with_capacity(items.len());
                for (tag, seed) in &items {
                    match self.reveal_one(tag, seed) {
                        Ok(docs) => results.push(docs),
                        Err(msg) => return proto_common::encode_error(&msg),
                    }
                }
                proto_common::encode_result_many(&results)
            }
            Request::Checkpoint => self.index.checkpoint_request(),
            Request::ExportIndex => protocol::encode_index_dump(&self.export_representations()),
            Request::ReplaceIndex { capacity, entries } => {
                self.handle_replace_index(capacity, entries)
            }
        }
    }

    /// Resolve one tag on its shard's snapshot, counting the lookup.
    fn lookup<R>(&self, tag: &[u8; 32], read: impl FnOnce(Option<&Entry>) -> R) -> R {
        let snap = self.index.snap(self.index.shard_for(tag));
        let (entry, s) = snap.tree.get_with_stats(tag);
        self.stats.tree_lookups.fetch_add(1, Ordering::Relaxed);
        self.stats
            .tree_nodes_visited
            .fetch_add(s.nodes_visited as u64, Ordering::Relaxed);
        read(entry)
    }

    /// Unmask one posting array with the revealed seed and fetch matches.
    /// Lock-free against the index: resolves the tag on the shard's
    /// immutable snapshot, never waiting on a shard mutex or an fsync.
    ///
    /// # Errors
    /// A stored array whose width disagrees with the snapshot's document
    /// capacity (possible only through a corrupted or adversarial index
    /// import) is reported as a protocol-level error — it must never become
    /// a `DocBitSet` capacity panic on a worker thread.
    fn reveal_one(
        &self,
        tag: &[u8; 32],
        seed: &[u8; 32],
    ) -> StdResult<Vec<(u64, Vec<u8>)>, String> {
        let snap = self.index.snap(self.index.shard_for(tag));
        self.stats.searches.fetch_add(1, Ordering::Relaxed);
        let Some(entry) = snap.tree.get(tag) else {
            return Ok(Vec::new());
        };
        // Unmask: (I(w) ⊕ G(r)) ⊕ G(r) = I(w).
        let plain = Prg::mask(seed, &entry.masked_index);
        let capacity = snap.meta.capacity_docs;
        if plain.len() != snap.meta.index_bytes {
            return Err(format!(
                "index entry width {} does not match capacity {capacity} ({} bytes expected)",
                plain.len(),
                snap.meta.index_bytes
            ));
        }
        let ids = DocBitSet::from_bytes(capacity as usize, &plain).to_ids();
        Ok(self.index.get_docs(&ids))
    }

    /// One shard's stored entry, exposed for in-crate tests.
    #[cfg(test)]
    fn entry_for(&self, tag: &[u8; 32]) -> Option<(Vec<u8>, Vec<u8>)> {
        let data = self.index.lock_data(self.index.shard_for(tag));
        data.tree
            .get(tag)
            .map(|e| (e.masked_index.clone(), e.f_r.clone()))
    }
}

/// Every document id must fit the capacity.
fn check_doc_ids(geometry: &Geometry, docs: &[(u64, Vec<u8>)]) -> StdResult<(), String> {
    match docs.iter().find(|(id, _)| *id >= geometry.capacity_docs) {
        Some((id, _)) => Err(format!(
            "doc id {id} exceeds capacity {}",
            geometry.capacity_docs
        )),
        None => Ok(()),
    }
}

/// Every update delta must be exactly the index width.
fn check_widths(geometry: &Geometry, entries: &[UpdateEntry]) -> StdResult<(), String> {
    match entries
        .iter()
        .find(|e| e.delta.len() != geometry.index_bytes)
    {
        Some(e) => Err(format!(
            "delta length {} != index width {}",
            e.delta.len(),
            geometry.index_bytes
        )),
        None => Ok(()),
    }
}

impl Service for Scheme1Server {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self.handle_shared(request)
    }

    fn on_shutdown(&mut self) {
        // Collapse the WAL + journal into snapshots so a clean shutdown
        // leaves nothing to replay. Best effort: a failing disk at
        // shutdown must not abort the process, and recovery replays the
        // logs anyway.
        let _ = self.checkpoint_home();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto_common::{decode_ack, decode_result};
    use crate::scheme1::protocol::{
        decode_found, decode_nonces, encode_apply_updates, encode_get_nonces, encode_put_docs,
        encode_search_find, encode_search_reveal,
    };

    fn server() -> Scheme1Server {
        Scheme1Server::new_in_memory(64)
    }

    #[test]
    fn put_docs_and_capacity_enforcement() {
        let mut s = server();
        let ok = s.handle(&encode_put_docs(&[(0, vec![1]), (63, vec![2])]));
        decode_ack(&ok).unwrap();
        assert_eq!(s.stored_docs(), 2);

        let too_big = s.handle(&encode_put_docs(&[(64, vec![3])]));
        assert!(decode_ack(&too_big).is_err());
    }

    #[test]
    fn nonces_for_unknown_tags_are_absent() {
        let mut s = server();
        let resp = s.handle(&encode_get_nonces(&[[1u8; 32], [2u8; 32]]));
        assert_eq!(decode_nonces(&resp).unwrap(), vec![None, None]);
    }

    #[test]
    fn update_insert_then_merge() {
        let mut s = server();
        let tag = [9u8; 32];
        // Fresh insert: delta is the initial masked array.
        let delta1 = vec![0x0Fu8; 8];
        let r = s.handle(&encode_apply_updates(&[UpdateEntry {
            tag,
            delta: delta1.clone(),
            f_r: vec![1],
        }]));
        decode_ack(&r).unwrap();
        assert_eq!(s.unique_keywords(), 1);

        // Merge: stored becomes XOR of both deltas.
        let delta2 = vec![0xFFu8; 8];
        let r = s.handle(&encode_apply_updates(&[UpdateEntry {
            tag,
            delta: delta2,
            f_r: vec![2],
        }]));
        decode_ack(&r).unwrap();
        assert_eq!(s.unique_keywords(), 1);
        let (masked, f_r) = s.entry_for(&tag).unwrap();
        assert_eq!(masked, vec![0xF0u8; 8]);
        assert_eq!(f_r, vec![2]);
    }

    #[test]
    fn update_rejects_wrong_width() {
        let mut s = server();
        let r = s.handle(&encode_apply_updates(&[UpdateEntry {
            tag: [1u8; 32],
            delta: vec![0u8; 7], // index width is 8
            f_r: vec![],
        }]));
        assert!(decode_ack(&r).is_err());
    }

    #[test]
    fn search_find_reports_presence() {
        let mut s = server();
        let tag = [5u8; 32];
        assert_eq!(
            decode_found(&s.handle(&encode_search_find(&tag))).unwrap(),
            None
        );
        s.handle(&encode_apply_updates(&[UpdateEntry {
            tag,
            delta: vec![0u8; 8],
            f_r: vec![0xAB, 0xCD],
        }]));
        assert_eq!(
            decode_found(&s.handle(&encode_search_find(&tag))).unwrap(),
            Some(vec![0xAB, 0xCD])
        );
    }

    #[test]
    fn search_reveal_unmasks_and_returns_docs() {
        let mut s = server();
        s.handle(&encode_put_docs(&[
            (3, b"three".to_vec()),
            (7, b"seven".to_vec()),
        ]));

        // Build I(w) = {3, 7} masked under a known seed.
        let seed = [0x42u8; 32];
        let ids = DocBitSet::from_ids(64, &[3, 7]);
        let masked = Prg::mask(&seed, ids.as_bytes());
        let tag = [6u8; 32];
        s.handle(&encode_apply_updates(&[UpdateEntry {
            tag,
            delta: masked,
            f_r: vec![],
        }]));

        let resp = s.handle(&encode_search_reveal(&tag, &seed));
        let docs = decode_result(&resp).unwrap();
        assert_eq!(docs, vec![(3, b"three".to_vec()), (7, b"seven".to_vec())]);
    }

    #[test]
    fn search_reveal_unknown_tag_is_empty() {
        let mut s = server();
        let resp = s.handle(&encode_search_reveal(&[1u8; 32], &[0u8; 32]));
        assert_eq!(decode_result(&resp).unwrap(), vec![]);
    }

    #[test]
    fn corrupted_entry_width_is_a_protocol_error_not_a_panic() {
        let mut s = server();
        let tag = [0x6Bu8; 32];
        // Plant an entry whose array width disagrees with the capacity,
        // bypassing the update path's width validation (models a corrupted
        // or adversarially imported index, not reachable via ApplyUpdates).
        s.index.try_edit(0, |tree| {
            tree.insert(
                tag,
                Entry {
                    masked_index: vec![0u8; 3], // capacity 64 needs 8 bytes
                    f_r: vec![],
                },
            );
            true
        });
        let resp = s.handle(&encode_search_reveal(&tag, &[0u8; 32]));
        assert!(
            decode_result(&resp).is_err(),
            "width mismatch must surface as a protocol ERR"
        );

        // The batched reveal path must take the same guard.
        let resp = s.handle(&protocol::encode_search_reveal_many(&[(tag, [0u8; 32])]));
        assert!(crate::proto_common::decode_result_many(&resp).is_err());
    }

    #[test]
    fn garbage_request_yields_error_response_not_panic() {
        let mut s = server();
        let resp = s.handle(&[0xEE, 0xFF, 0x00]);
        assert!(decode_ack(&resp).is_err());
    }

    #[test]
    fn stats_track_lookups() {
        let mut s = server();
        s.handle(&encode_search_find(&[1u8; 32]));
        s.handle(&encode_get_nonces(&[[2u8; 32], [3u8; 32]]));
        let st = s.stats();
        assert_eq!(st.tree_lookups, 3);
        assert!(st.tree_nodes_visited >= 3);
        s.reset_stats();
        assert_eq!(s.stats().tree_lookups, 0);
    }

    #[test]
    fn sharded_server_answers_like_single_shard() {
        // The same update/search conversation against 1 and 5 shards must
        // be indistinguishable on the wire.
        let mut single = Scheme1Server::new_in_memory(64);
        let mut sharded = Scheme1Server::open(
            64,
            IndexOptions {
                shards: 5,
                ..IndexOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sharded.num_shards(), 5);
        let docs: Vec<(u64, Vec<u8>)> = (0..10u64).map(|i| (i, vec![i as u8; 4])).collect();
        let seed = [0x21u8; 32];
        let mut tags = Vec::new();
        let mut updates = Vec::new();
        for i in 0..20u8 {
            let mut tag = [0u8; 32];
            tag[0] = i.wrapping_mul(37);
            tag[1] = i;
            tags.push(tag);
            let ids = DocBitSet::from_ids(64, &[u64::from(i % 10)]);
            updates.push(UpdateEntry {
                tag,
                delta: Prg::mask(&seed, ids.as_bytes()),
                f_r: vec![i],
            });
        }
        for s in [&mut single, &mut sharded] {
            decode_ack(&s.handle(&encode_put_docs(&docs))).unwrap();
            decode_ack(&s.handle(&encode_apply_updates(&updates))).unwrap();
        }
        assert_eq!(single.unique_keywords(), sharded.unique_keywords());
        for tag in &tags {
            let a = single.handle(&encode_search_reveal(tag, &seed));
            let b = sharded.handle(&encode_search_reveal(tag, &seed));
            assert_eq!(a, b);
        }
        assert_eq!(
            single.export_representations(),
            sharded.export_representations()
        );
    }

    #[test]
    fn apply_batch_is_all_or_nothing_on_validation() {
        let s = server();
        let good = encode_apply_updates(&[UpdateEntry {
            tag: [1u8; 32],
            delta: vec![0xFF; 8],
            f_r: vec![1],
        }]);
        let bad = encode_apply_updates(&[UpdateEntry {
            tag: [2u8; 32],
            delta: vec![0xFF; 3], // wrong width
            f_r: vec![2],
        }]);
        let docs = encode_put_docs(&[(5, b"five".to_vec())]);
        let resp = s.apply_batch(&[&docs, &good, &bad]);
        assert!(decode_ack(&resp).is_err());
        assert_eq!(s.unique_keywords(), 0, "no part of the batch applied");
        assert_eq!(
            s.stored_docs(),
            0,
            "documents are validated with the updates"
        );

        let resp = s.apply_batch(&[&good]);
        decode_ack(&resp).unwrap();
        assert_eq!(s.unique_keywords(), 1);
    }

    #[test]
    fn apply_batch_rejects_non_mutations() {
        let s = server();
        let resp = s.apply_batch(&[&encode_search_find(&[1u8; 32])]);
        assert!(decode_ack(&resp).is_err());
    }

    #[test]
    fn searches_see_acked_updates_through_snapshots() {
        // Read-your-writes through the snapshot path: an acked update is
        // immediately visible to GetNonces / SearchFind / reveal.
        let s = Scheme1Server::open(
            64,
            IndexOptions {
                shards: 4,
                ..IndexOptions::default()
            },
        )
        .unwrap();
        let seed = [0x37u8; 32];
        for i in 0..32u8 {
            let mut tag = [0u8; 32];
            tag[0] = i;
            tag[1] = i.wrapping_mul(101);
            let ids = DocBitSet::from_ids(64, &[u64::from(i % 16)]);
            let resp = s.handle_shared(&encode_apply_updates(&[UpdateEntry {
                tag,
                delta: Prg::mask(&seed, ids.as_bytes()),
                f_r: vec![i, 0xEE],
            }]));
            decode_ack(&resp).unwrap();
            let found = s.handle_shared(&encode_search_find(&tag));
            assert_eq!(decode_found(&found).unwrap(), Some(vec![i, 0xEE]));
        }
        let counters = s.commit_counters();
        assert_eq!(counters.snapshot_swaps, 32);
    }
}
