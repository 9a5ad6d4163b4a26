//! Scheme 2 server.
//!
//! Per keyword tag, the server keeps a [`GenerationList`] of masked
//! generations. On update it appends blindly (it cannot decrypt anything).
//! On search it receives `(t_w, t'_w)`, finds the tag in `O(log u)`, then
//! *walks the hash chain forward* from `t'_w`: at each element `e` it
//! checks `f'(e)` against the commitment of the next locked generation
//! (newest first), decrypting as commitments match. The walk length is the
//! measurable `l/2x`-style cost of Table 1 — exposed in
//! [`Scheme2ServerStats::chain_steps`].
//!
//! Sharding, group commit, snapshot reads, checkpoints and recovery are
//! the [`ShardedIndex`] core's; this module supplies the Scheme 2 entry
//! (a generation list per tag, no index metadata), its request handler
//! and its search path. Searches resolve the tag — and walk the whole
//! chain — against the shard's snapshot, never taking the shard mutex and
//! never waiting on an fsync. The Optimization-1 cache is written back
//! opportunistically afterwards (see [`ShardedIndex`]'s `try_edit`), and
//! a per-shard search memo keyed on the snapshot's `applied_seq` answers
//! repeat searches outright.

use super::protocol::{self, GenerationEntry, Request};
use super::{key_commitment, Scheme2Config};
use crate::error::{Result, SseError};
use crate::proto_common;
use crate::sharded::{IndexOptions, SchemeEntry, ShardData, ShardedIndex};
use parking_lot::Mutex;
use sse_index::bptree::BpTree;
use sse_index::postings::{Generation, GenerationList};
use sse_net::link::Service;
use sse_net::wire::{WireReader, WireWriter};
use sse_primitives::etm::EtmKey;
use sse_primitives::hashchain::chain_step;
use sse_storage::StorageError;
use std::collections::HashMap;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The Scheme 2 [`SchemeEntry`]: generation lists, no index metadata.
pub struct Scheme2Entry;

impl SchemeEntry for Scheme2Entry {
    type Value = GenerationList;
    type Meta = ();
    const PREFIX: &'static str = "scheme2";
    /// v2: the body leads with the `last_op_seq` covered by the snapshot.
    const MAGIC: &'static [u8; 8] = b"SSE2IDX2";

    /// The Optimization-1 plaintext cache is *not* persisted — it is an
    /// optimization the next search rebuilds, and keeping recovered state
    /// minimal follows the principle of storing only what is necessary.
    fn put_value(list: &GenerationList, w: &mut WireWriter) {
        w.put_u64(list.len() as u64);
        for generation in list.iter() {
            w.put_bytes(&generation.masked_ids);
            w.put_array(&generation.key_commitment);
        }
    }

    fn get_value(r: &mut WireReader<'_>, (): &()) -> Result<GenerationList> {
        let gens = r.get_count(40)?;
        let mut list = GenerationList::new();
        for _ in 0..gens {
            let masked_ids = r.get_bytes()?.to_vec();
            let key_commitment = r.get_array32()?;
            list.push(Generation {
                masked_ids,
                key_commitment,
            });
        }
        Ok(list)
    }

    fn put_meta((): &(), _: &mut WireWriter) {}

    fn check_meta(_: &mut WireReader<'_>, (): &()) -> Result<()> {
        Ok(())
    }

    fn replay(shard: &mut ShardData<Self>, (): &mut (), record: &[u8]) -> Result<()> {
        match protocol::decode_request(record)? {
            Request::AppendGenerations(entries) => append_generations(shard, &entries),
            Request::ResetIndex => reset(shard),
            _ => {
                return Err(SseError::Storage(StorageError::Corrupt {
                    what: "scheme2 index journal",
                    detail: "journal holds a non-mutating request".to_string(),
                }))
            }
        }
        Ok(())
    }
}

/// Append generation entries to a shard's lists.
fn append_generations(shard: &mut ShardData<Scheme2Entry>, entries: &[GenerationEntry]) {
    for entry in entries {
        shard.note_mutated(entry.tag);
        let generation = Generation {
            masked_ids: entry.sealed_ids.clone(),
            key_commitment: entry.commitment,
        };
        match shard.tree.get_mut(&entry.tag) {
            Some(list) => list.push(generation),
            None => {
                let mut list = GenerationList::new();
                list.push(generation);
                shard.tree.insert(entry.tag, list);
            }
        }
    }
}

/// Clear a shard (`ResetIndex`).
fn reset(shard: &mut ShardData<Scheme2Entry>) {
    shard.note_cleared();
    shard.tree = BpTree::new();
}

/// Out-of-band observability counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scheme2ServerStats {
    /// Searches served.
    pub searches: u64,
    /// Total forward hash-chain steps across all searches.
    pub chain_steps: u64,
    /// Generations decrypted across all searches.
    pub generations_decrypted: u64,
    /// Generations served straight from the Optimization-1 cache.
    pub generations_from_cache: u64,
    /// Generation entries appended.
    pub generations_appended: u64,
    /// B+-tree nodes visited across lookups.
    pub tree_nodes_visited: u64,
    /// Searches answered entirely from the per-keyword search memo
    /// (no tree lookup, no decryption, at most a delta chain walk).
    pub cache_hits: u64,
    /// Cached-eligible searches that had to take the cold path (no memo
    /// entry, or the shard changed since it was recorded).
    pub cache_misses: u64,
    /// Chain steps memo hits avoided relative to an uncached walk.
    pub walk_steps_saved: u64,
}

/// Lock-free cells behind [`Scheme2ServerStats`], so concurrent requests
/// can count without taking any index lock.
#[derive(Default)]
struct StatsCells {
    searches: AtomicU64,
    chain_steps: AtomicU64,
    generations_decrypted: AtomicU64,
    generations_from_cache: AtomicU64,
    generations_appended: AtomicU64,
    tree_nodes_visited: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    walk_steps_saved: AtomicU64,
}

/// Per-keyword search memo: everything the server learned from serving a
/// prior search, so a repeat search answers without touching the tree or
/// re-walking the chain. Purely in-memory — never persisted, rebuilt by
/// the first search after recovery.
///
/// Leakage note (DESIGN.md §4f): every field is a value the server
/// already computed while serving a search the client asked for — the
/// revealed trapdoor, the unlocked id set, the walk it performed. The
/// memo changes *when* the server recomputes, never *what* it knows.
#[derive(Clone)]
struct SearchMemo {
    /// Shard `applied_seq` the memoized answer was computed at.
    applied_seq: u64,
    /// Newest trapdoor seen for this tag (the walk start point).
    t_prime: [u8; 32],
    /// The unlocked document-id set, sorted.
    ids: Vec<u64>,
    /// Chain steps a from-scratch walk from `t_prime` would cost — what a
    /// memo hit saves.
    walk_cost: u64,
    /// Generations the memoized answer covers (credited to
    /// `generations_from_cache` on a hit).
    gens: u64,
}

/// Per-shard memo capacity; crossing it clears the map (crude but bounded
/// — the memo is an optimization, not state).
const MEMO_CAP: usize = 4096;

/// The Scheme 2 server: request handling over a [`ShardedIndex`], whose
/// operational surface (checkpoints, health, repair, counters) it derefs
/// to.
pub struct Scheme2Server {
    index: ShardedIndex<Scheme2Entry>,
    /// Per-shard keyword search memos (see [`SearchMemo`]). Short
    /// critical sections: held only for a lookup or an insert, never
    /// across crypto or I/O, so the search path stays effectively
    /// lock-free.
    memos: Vec<Mutex<HashMap<[u8; 32], SearchMemo>>>,
    config: Scheme2Config,
    stats: StatsCells,
}

impl Deref for Scheme2Server {
    type Target = ShardedIndex<Scheme2Entry>;

    fn deref(&self) -> &Self::Target {
        &self.index
    }
}

impl Scheme2Server {
    /// In-memory server with a single index shard.
    #[must_use]
    pub fn new_in_memory(config: Scheme2Config) -> Self {
        Self::over(ShardedIndex::in_memory((), 1), config)
    }

    /// Durable server persisting under `dir` with default options (see
    /// [`Scheme2Server::open`]).
    ///
    /// # Errors
    /// As [`Scheme2Server::open`].
    pub fn open_durable(config: Scheme2Config, dir: &Path) -> Result<Self> {
        Self::open(config, IndexOptions::durable(dir))
    }

    /// Server opened as `opts` describe; a durable directory is recovered
    /// as [`ShardedIndex`] documents.
    ///
    /// # Errors
    /// Storage errors while opening or recovering, a corrupt index or
    /// journal record, or a backend mismatch.
    pub fn open(config: Scheme2Config, opts: IndexOptions) -> Result<Self> {
        Ok(Self::over(ShardedIndex::open((), opts)?, config))
    }

    fn over(index: ShardedIndex<Scheme2Entry>, config: Scheme2Config) -> Self {
        Scheme2Server {
            memos: (0..index.num_shards())
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            index,
            config,
            stats: StatsCells::default(),
        }
    }

    /// Observability counters.
    #[must_use]
    pub fn stats(&self) -> Scheme2ServerStats {
        Scheme2ServerStats {
            searches: self.stats.searches.load(Ordering::Relaxed),
            chain_steps: self.stats.chain_steps.load(Ordering::Relaxed),
            generations_decrypted: self.stats.generations_decrypted.load(Ordering::Relaxed),
            generations_from_cache: self.stats.generations_from_cache.load(Ordering::Relaxed),
            generations_appended: self.stats.generations_appended.load(Ordering::Relaxed),
            tree_nodes_visited: self.stats.tree_nodes_visited.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            walk_steps_saved: self.stats.walk_steps_saved.load(Ordering::Relaxed),
        }
    }

    /// Reset the observability counters.
    pub fn reset_stats(&self) {
        self.stats.searches.store(0, Ordering::Relaxed);
        self.stats.chain_steps.store(0, Ordering::Relaxed);
        self.stats.generations_decrypted.store(0, Ordering::Relaxed);
        self.stats
            .generations_from_cache
            .store(0, Ordering::Relaxed);
        self.stats.generations_appended.store(0, Ordering::Relaxed);
        self.stats.tree_nodes_visited.store(0, Ordering::Relaxed);
        self.stats.cache_hits.store(0, Ordering::Relaxed);
        self.stats.cache_misses.store(0, Ordering::Relaxed);
        self.stats.walk_steps_saved.store(0, Ordering::Relaxed);
    }

    /// Total stored index bytes across all generation lists (diagnostic).
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.index
            .lock_all_data()
            .iter()
            .map(|s| s.tree.iter().map(|(_, l)| l.stored_bytes()).sum::<usize>())
            .sum()
    }

    /// Serve one request without exclusive access — the entry point the
    /// multi-tenant daemon's workers call concurrently. Searches run
    /// against immutable snapshots; mutations pipeline through the
    /// per-shard group committers.
    pub fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        self.handle_shared_with(request, Vec::new())
    }

    /// [`Self::handle_shared`] with a recycled response buffer: the hot
    /// `Search` branch encodes its result into `scratch` (capacity
    /// reused, contents discarded) so a steady-state search response
    /// costs no allocation when the caller recycles buffers through a
    /// pool. Every other request kind ignores the scratch — mutations
    /// and admin requests are not on the serving hot path.
    pub fn handle_shared_with(&self, request: &[u8], scratch: Vec<u8>) -> Vec<u8> {
        match protocol::decode_request(request) {
            Ok(Request::Search { tag, t_prime }) => match self.search_one(tag, t_prime) {
                Ok(docs) => proto_common::encode_result_with(&docs, scratch),
                Err(msg) => proto_common::encode_error(&msg),
            },
            Ok(req) => self.handle_request(req),
            Err(e) => proto_common::encode_error(&e.to_string()),
        }
    }

    /// Apply an `UPDATE_MANY` batch: every part must be a mutation
    /// (`PutDocs` or `AppendGenerations`). All parts are decoded first,
    /// then journaled as one cross-shard batch and applied all-or-nothing
    /// with respect to racing searches (all touched shards' snapshots swap
    /// inside one epoch window).
    pub fn apply_batch(&self, parts: &[&[u8]]) -> Vec<u8> {
        let mut docs: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut entries: Vec<GenerationEntry> = Vec::new();
        for part in parts {
            match protocol::decode_request(part) {
                Ok(Request::PutDocs(d)) => docs.extend(d),
                Ok(Request::AppendGenerations(e)) => entries.extend(e),
                Ok(_) => {
                    return proto_common::encode_error(
                        "batch parts must be mutations (PutDocs / AppendGenerations)",
                    )
                }
                Err(e) => return proto_common::encode_error(&e.to_string()),
            }
        }
        if let Err(resp) = self.index.put_docs(&docs) {
            return resp;
        }
        self.append_sharded(entries)
    }

    /// Append generation entries: group per shard (preserving input order
    /// within each shard), then run the group-commit pipeline under the
    /// barrier read lock, so barrier writers (checkpoints) always see it
    /// quiesced.
    fn append_sharded(&self, entries: Vec<GenerationEntry>) -> Vec<u8> {
        if entries.is_empty() {
            return proto_common::encode_ack();
        }
        let barrier = self.index.meta();
        let groups = self.index.group_by_shard(entries, |e| &e.tag);
        let idxs: Vec<usize> = groups.keys().copied().collect();
        let result = self.index.commit_mutation(
            &idxs,
            |i| protocol::encode_append_generations(&groups[&i]),
            |i, shard| {
                append_generations(shard, &groups[&i]);
                self.stats
                    .generations_appended
                    .fetch_add(groups[&i].len() as u64, Ordering::Relaxed);
            },
            &barrier,
        );
        self.index.respond(result)
    }

    fn handle_request(&self, request: Request) -> Vec<u8> {
        match request {
            Request::PutDocs(docs) => match self.index.put_docs(&docs) {
                Ok(()) => proto_common::encode_ack(),
                Err(resp) => resp,
            },
            Request::AppendGenerations(entries) => self.append_sharded(entries),
            Request::Search { tag, t_prime } => match self.search_one(tag, t_prime) {
                Ok(docs) => proto_common::encode_result(&docs),
                Err(msg) => proto_common::encode_error(&msg),
            },
            Request::SearchMany(trapdoors) => {
                let mut results = Vec::with_capacity(trapdoors.len());
                for (tag, t_prime) in trapdoors {
                    match self.search_one(tag, t_prime) {
                        Ok(docs) => results.push(docs),
                        Err(msg) => return proto_common::encode_error(&msg),
                    }
                }
                proto_common::encode_result_many(&results)
            }
            Request::ResetIndex => {
                // ResetIndex rewrites every shard, so the batch spans all N.
                let barrier = self.index.meta();
                let idxs: Vec<usize> = (0..self.index.num_shards()).collect();
                let result = self.index.commit_mutation(
                    &idxs,
                    |_| protocol::encode_reset_index(),
                    |_, shard| reset(shard),
                    &barrier,
                );
                self.index.respond(result)
            }
            Request::Checkpoint => self.index.checkpoint_request(),
            // Deleting an unknown id is a no-op, not an error: the
            // posting-side delete entries may arrive first.
            Request::RemoveDocs(ids) => match self.index.remove_docs(&ids) {
                Ok(()) => proto_common::encode_ack(),
                Err(resp) => resp,
            },
        }
    }

    /// Execute one Fig. 4 search, returning the matching encrypted
    /// documents or an error description. Lock-free against the index:
    /// the tag lookup and the entire chain walk run on the shard's
    /// immutable snapshot, never waiting on a shard mutex or an fsync.
    /// The Optimization-1 cache write-back afterwards is opportunistic
    /// (see [`Scheme2Server::write_back_cache`]).
    fn search_one(
        &self,
        tag: [u8; 32],
        t_prime: [u8; 32],
    ) -> std::result::Result<Vec<(u64, Vec<u8>)>, String> {
        let max_walk = self.config.chain_length as usize + 1;
        let use_cache = self.config.server_cache;

        let si = self.index.shard_for(&tag);
        let snap = self.index.snap(si);

        // Memo fast path: if this keyword was searched before and the
        // shard has not changed since, answer without touching the tree
        // or the chain (same trapdoor), or after walking only the delta
        // between the new trapdoor and the memoized one (newer trapdoor).
        if use_cache {
            if let Some(docs) = self.try_memo(si, snap.applied_seq, &tag, &t_prime, max_walk) {
                return Ok(docs);
            }
        }

        let (found, tree_stats) = snap.tree.get_with_stats(&tag);
        self.stats
            .tree_nodes_visited
            .fetch_add(tree_stats.nodes_visited as u64, Ordering::Relaxed);
        let Some(list) = found else {
            self.stats.searches.fetch_add(1, Ordering::Relaxed);
            return Ok(Vec::new());
        };
        if use_cache {
            self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        }

        self.stats
            .generations_from_cache
            .fetch_add(list.cached_generations() as u64, Ordering::Relaxed);

        // Unlock the undecrypted suffix newest-to-oldest while walking the
        // chain forward from the trapdoor. Each generation decrypts to an
        // (added ids, deleted ids) pair; deletions are the beyond-paper
        // dynamic-SSE extension (an empty delete list is the paper's case).
        let locked: &[Generation] = list.undecrypted();
        let mut decoded: Vec<(Vec<u64>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); locked.len()];
        let mut element = t_prime;
        let mut steps_used = 0usize;
        for (pos, generation) in locked.iter().enumerate().rev() {
            // Advance until the commitment matches this generation's key.
            let mut matched = key_commitment(&element) == generation.key_commitment;
            while !matched {
                if steps_used >= max_walk {
                    self.stats.searches.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .chain_steps
                        .fetch_add(steps_used as u64, Ordering::Relaxed);
                    return Err(format!(
                        "chain walk exceeded {max_walk} steps; client/server desync"
                    ));
                }
                element = chain_step(&element);
                steps_used += 1;
                matched = key_commitment(&element) == generation.key_commitment;
            }
            // `element` is the generation key: decrypt the posting entry.
            let etm = EtmKey::new(&element);
            let plain = match etm.open(&generation.masked_ids) {
                Ok(p) => p,
                Err(e) => {
                    self.stats.searches.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("generation decryption failed: {e}"));
                }
            };
            let mut r = WireReader::new(&plain);
            let parsed: std::result::Result<(Vec<u64>, Vec<u64>), _> = (|| {
                let adds = r.get_u64_vec()?;
                let dels = r.get_u64_vec()?;
                r.finish()?;
                Ok::<_, sse_net::wire::WireError>((adds, dels))
            })();
            match parsed {
                Ok(pair) => decoded[pos] = pair,
                Err(e) => {
                    self.stats.searches.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("generation payload malformed: {e}"));
                }
            }
        }
        self.stats
            .chain_steps
            .fetch_add(steps_used as u64, Ordering::Relaxed);
        self.stats
            .generations_decrypted
            .fetch_add(locked.len() as u64, Ordering::Relaxed);
        self.stats.searches.fetch_add(1, Ordering::Relaxed);

        // Apply generations in chronological order on top of the
        // Optimization-1 cache: adds union in, deletes remove.
        let mut all_ids: Vec<u64> = list.cached_ids().to_vec();
        for (adds, dels) in &decoded {
            for id in adds {
                if !all_ids.contains(id) {
                    all_ids.push(*id);
                }
            }
            for id in dels {
                all_ids.retain(|x| x != id);
            }
        }
        if use_cache && !locked.is_empty() {
            self.write_back_cache(si, &tag, list, all_ids.clone());
        }

        all_ids.sort_unstable();
        if use_cache {
            self.store_memo(
                si,
                SearchMemo {
                    applied_seq: snap.applied_seq,
                    t_prime,
                    ids: all_ids.clone(),
                    walk_cost: steps_used as u64,
                    gens: list.len() as u64,
                },
                tag,
            );
        }
        Ok(self.index.get_docs(&all_ids))
    }

    /// Try to answer a search from the per-keyword memo. Returns the
    /// documents on a hit, `None` on any miss (no entry, shard changed,
    /// or the delta walk from the new trapdoor never reaches the
    /// memoized one within the walk bound — the cold path then produces
    /// the correct answer or the correct desync error).
    fn try_memo(
        &self,
        si: usize,
        snap_seq: u64,
        tag: &[u8; 32],
        t_prime: &[u8; 32],
        max_walk: usize,
    ) -> Option<Vec<(u64, Vec<u8>)>> {
        let memo = self.memos[si].lock().get(tag).cloned()?;
        if memo.applied_seq != snap_seq {
            return None;
        }
        let delta = if t_prime == &memo.t_prime {
            0u64
        } else {
            // Walk forward from the newer trapdoor until it meets the
            // memoized one; the shard is unchanged, so the id set is too.
            let mut element = *t_prime;
            let mut steps = 0u64;
            loop {
                if steps as usize >= max_walk {
                    return None;
                }
                element = chain_step(&element);
                steps += 1;
                if element == memo.t_prime {
                    break;
                }
            }
            steps
        };
        self.stats.searches.fetch_add(1, Ordering::Relaxed);
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.stats.chain_steps.fetch_add(delta, Ordering::Relaxed);
        self.stats
            .walk_steps_saved
            .fetch_add(memo.walk_cost, Ordering::Relaxed);
        self.stats
            .generations_from_cache
            .fetch_add(memo.gens, Ordering::Relaxed);
        if delta > 0 {
            // Advance the memo to the newer trapdoor so the next repeat
            // of *this* trapdoor is a zero-walk hit.
            let mut map = self.memos[si].lock();
            if let Some(live) = map.get_mut(tag) {
                if live.applied_seq == memo.applied_seq && live.t_prime == memo.t_prime {
                    live.t_prime = *t_prime;
                    live.walk_cost = memo.walk_cost + delta;
                }
            }
        }
        Some(self.index.get_docs(&memo.ids))
    }

    /// Record a cold search's answer in the shard's memo map.
    fn store_memo(&self, si: usize, memo: SearchMemo, tag: [u8; 32]) {
        let mut map = self.memos[si].lock();
        if map.len() >= MEMO_CAP && !map.contains_key(&tag) {
            map.clear();
        }
        map.insert(tag, memo);
    }

    /// Opportunistically record the Optimization-1 plaintext cache
    /// computed by a snapshot search back into the live shard. Best
    /// effort by design — the search already has its answer, and the
    /// cache is a pure optimization the next search can rebuild:
    ///
    /// * `try_lock` only — a search must never queue behind a mutation
    ///   (that is the whole point of the snapshot read path);
    /// * skipped unless the live list is exactly the one the search saw
    ///   (same length, same cache point, same newest commitment) — a
    ///   racing append or reset invalidates the computed id set.
    fn write_back_cache(
        &self,
        si: usize,
        tag: &[u8; 32],
        seen: &GenerationList,
        all_ids: Vec<u64>,
    ) {
        self.index.try_edit(si, |tree| {
            let Some(live) = tree.get_mut(tag) else {
                return false;
            };
            let unchanged = live.len() == seen.len()
                && live.cached_generations() == seen.cached_generations()
                && live.undecrypted().last().map(|g| g.key_commitment)
                    == seen.undecrypted().last().map(|g| g.key_commitment);
            if unchanged {
                live.set_cached(all_ids);
            }
            unchanged
        });
    }
}

impl Service for Scheme2Server {
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
    use sse_net::wire::WireWriter;
    use sse_primitives::hashchain::{walk_forward, HashChain};

    fn sealed_ids(key: &[u8; 32], ids: &[u64]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64_vec(ids);
        w.put_u64_vec(&[]); // no deletions
        EtmKey::new(key).seal(&w.finish())
    }

    fn server() -> Scheme2Server {
        Scheme2Server::new_in_memory(Scheme2Config::standard().with_chain_length(64))
    }

    #[test]
    fn append_then_search_single_generation() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[
            (1, b"one".to_vec()),
            (2, b"two".to_vec()),
        ]));

        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k1 = chain.key_for_counter(1).unwrap();
        let tag = [9u8; 32];
        let resp = s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1, 2]),
            commitment: key_commitment(&k1),
        }]));
        decode_ack(&resp).unwrap();

        // Trapdoor at the same counter: zero walk steps.
        let resp = s.handle(&protocol::encode_search(&tag, &k1));
        let docs = decode_result(&resp).unwrap();
        assert_eq!(docs, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
        assert_eq!(s.stats().chain_steps, 0);
        assert_eq!(s.stats().generations_decrypted, 1);
    }

    #[test]
    fn newer_trapdoor_unlocks_older_generations() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[
            (1, b"a".to_vec()),
            (2, b"b".to_vec()),
        ]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [7u8; 32];
        // Two generations at counters 1 and 5.
        for (ctr, id) in [(1u64, 1u64), (5, 2)] {
            let k = chain.key_for_counter(ctr).unwrap();
            s.handle(&protocol::encode_append_generations(&[GenerationEntry {
                tag,
                sealed_ids: sealed_ids(&k, &[id]),
                commitment: key_commitment(&k),
            }]));
        }
        // Trapdoor at counter 9: walk 4 steps to reach k(5), then 4 more to
        // k(1).
        let t9 = chain.key_for_counter(9).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t9));
        let docs = decode_result(&resp).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(s.stats().chain_steps, 8);
    }

    #[test]
    fn cache_skips_decrypted_generations() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[
            (1, b"a".to_vec()),
            (2, b"b".to_vec()),
        ]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [3u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));

        let t = chain.key_for_counter(2).unwrap();
        decode_result(&s.handle(&protocol::encode_search(&tag, &t))).unwrap();
        assert_eq!(s.stats().generations_decrypted, 1);

        // Second search: generation already cached, nothing to decrypt.
        decode_result(&s.handle(&protocol::encode_search(&tag, &t))).unwrap();
        assert_eq!(s.stats().generations_decrypted, 1, "no re-decryption");
        assert_eq!(s.stats().generations_from_cache, 1);

        // Append another generation; only the new one is decrypted.
        let k3 = chain.key_for_counter(3).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k3, &[2]),
            commitment: key_commitment(&k3),
        }]));
        let t4 = chain.key_for_counter(4).unwrap();
        let docs = decode_result(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(s.stats().generations_decrypted, 2);
    }

    #[test]
    fn cache_disabled_redecrypts_every_time() {
        let mut s = Scheme2Server::new_in_memory(
            Scheme2Config::standard()
                .with_chain_length(64)
                .with_server_cache(false),
        );
        s.handle(&protocol::encode_put_docs(&[(1, b"a".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [3u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));
        let t = chain.key_for_counter(2).unwrap();
        decode_result(&s.handle(&protocol::encode_search(&tag, &t))).unwrap();
        decode_result(&s.handle(&protocol::encode_search(&tag, &t))).unwrap();
        assert_eq!(
            s.stats().generations_decrypted,
            2,
            "no cache: decrypt twice"
        );
    }

    #[test]
    fn memo_exact_hit_skips_walk_and_tree() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[(1, b"a".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [5u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));
        let t3 = chain.key_for_counter(3).unwrap();
        let cold = decode_result(&s.handle(&protocol::encode_search(&tag, &t3))).unwrap();
        let after_cold = s.stats();
        assert_eq!(after_cold.chain_steps, 2);
        assert_eq!(after_cold.cache_misses, 1);

        let warm = decode_result(&s.handle(&protocol::encode_search(&tag, &t3))).unwrap();
        assert_eq!(warm, cold, "memo hit must be byte-identical");
        let after_warm = s.stats();
        assert_eq!(after_warm.cache_hits, 1);
        assert_eq!(after_warm.chain_steps, 2, "zero additional walk");
        assert_eq!(after_warm.walk_steps_saved, 2);
        assert_eq!(after_warm.tree_nodes_visited, after_cold.tree_nodes_visited);
        assert_eq!(after_warm.generations_decrypted, 1);
    }

    #[test]
    fn memo_delta_walk_only_covers_the_gap() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[(1, b"a".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [6u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));
        let t2 = chain.key_for_counter(2).unwrap();
        let cold = decode_result(&s.handle(&protocol::encode_search(&tag, &t2))).unwrap();
        assert_eq!(s.stats().chain_steps, 1);

        // A search from a *newer* trapdoor (fake updates advanced the
        // counter) walks only the 3-step delta down to the memoized one.
        let t5 = chain.key_for_counter(5).unwrap();
        let delta = decode_result(&s.handle(&protocol::encode_search(&tag, &t5))).unwrap();
        assert_eq!(delta, cold);
        let st = s.stats();
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.chain_steps, 1 + 3);
        assert_eq!(st.walk_steps_saved, 1);

        // Repeating the newer trapdoor is now a zero-walk hit.
        decode_result(&s.handle(&protocol::encode_search(&tag, &t5))).unwrap();
        let st = s.stats();
        assert_eq!(st.cache_hits, 2);
        assert_eq!(st.chain_steps, 4, "no additional steps");
        assert_eq!(st.walk_steps_saved, 1 + 4);
    }

    #[test]
    fn memo_invalidated_by_append_and_reset() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[
            (1, b"a".to_vec()),
            (2, b"b".to_vec()),
        ]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [7u8; 32];
        let k1 = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k1, &[1]),
            commitment: key_commitment(&k1),
        }]));
        let t2 = chain.key_for_counter(2).unwrap();
        decode_result(&s.handle(&protocol::encode_search(&tag, &t2))).unwrap();

        // Append invalidates: the next search must see the new generation.
        let k3 = chain.key_for_counter(3).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k3, &[2]),
            commitment: key_commitment(&k3),
        }]));
        let t4 = chain.key_for_counter(4).unwrap();
        let docs = decode_result(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
        assert_eq!(docs.len(), 2, "append visible despite memo");
        assert_eq!(s.stats().cache_hits, 0);
        assert_eq!(s.stats().cache_misses, 2);

        // Reset invalidates: the tag is gone.
        decode_ack(&s.handle(&protocol::encode_reset_index())).unwrap();
        let docs = decode_result(&s.handle(&protocol::encode_search(&tag, &t4))).unwrap();
        assert!(docs.is_empty(), "reset visible despite memo");
    }

    #[test]
    fn memo_declines_stale_trapdoors() {
        // A trapdoor *older* than the memoized one can never reach the
        // memo key by walking forward, so the memo declines and the cold
        // path answers — here from the Optimization-1 plaintext cache,
        // byte-identically to a server without the memo layer.
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[(1, b"a".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [8u8; 32];
        let k5 = chain.key_for_counter(5).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k5, &[1]),
            commitment: key_commitment(&k5),
        }]));
        let t6 = chain.key_for_counter(6).unwrap();
        let cold = decode_result(&s.handle(&protocol::encode_search(&tag, &t6))).unwrap();
        let t1 = chain.key_for_counter(1).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t1));
        assert_eq!(decode_result(&resp).unwrap(), cold);
        assert_eq!(s.stats().cache_hits, 0, "memo must not hit");

        // With a still-locked newer generation the desync error is
        // preserved exactly as without the memo.
        let k10 = chain.key_for_counter(10).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k10, &[2]),
            commitment: key_commitment(&k10),
        }]));
        let t7 = chain.key_for_counter(7).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t7));
        assert!(decode_result(&resp).is_err(), "must not unlock the future");
    }

    #[test]
    fn unknown_tag_returns_empty() {
        let mut s = server();
        let resp = s.handle(&protocol::encode_search(&[1u8; 32], &[2u8; 32]));
        assert_eq!(decode_result(&resp).unwrap(), vec![]);
    }

    #[test]
    fn stale_trapdoor_cannot_unlock_newer_generation() {
        // One-wayness in action: a trapdoor issued at counter 1 cannot
        // unlock a generation keyed at counter 5 (the walk would need to go
        // backwards). The server reports desync after exhausting the bound.
        let mut s = server();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [8u8; 32];
        let k5 = chain.key_for_counter(5).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k5, &[1]),
            commitment: key_commitment(&k5),
        }]));
        let t1 = chain.key_for_counter(1).unwrap();
        let resp = s.handle(&protocol::encode_search(&tag, &t1));
        assert!(decode_result(&resp).is_err(), "must not decrypt the future");
    }

    #[test]
    fn reset_index_clears_keywords_keeps_docs() {
        let mut s = server();
        s.handle(&protocol::encode_put_docs(&[(1, b"kept".to_vec())]));
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k = chain.key_for_counter(1).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag: [1u8; 32],
            sealed_ids: sealed_ids(&k, &[1]),
            commitment: key_commitment(&k),
        }]));
        assert_eq!(s.unique_keywords(), 1);
        decode_ack(&s.handle(&protocol::encode_reset_index())).unwrap();
        assert_eq!(s.unique_keywords(), 0);
        assert_eq!(s.stored_docs(), 1);
    }

    #[test]
    fn corrupted_generation_yields_error_response() {
        let mut s = server();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k = chain.key_for_counter(1).unwrap();
        let mut sealed = sealed_ids(&k, &[1]);
        let len = sealed.len();
        sealed[len / 2] ^= 0xFF;
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag: [1u8; 32],
            sealed_ids: sealed,
            commitment: key_commitment(&k),
        }]));
        let resp = s.handle(&protocol::encode_search(&[1u8; 32], &k));
        assert!(decode_result(&resp).is_err());
    }

    #[test]
    fn walk_costs_scale_with_counter_gap() {
        let mut s = server();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let tag = [2u8; 32];
        let k10 = chain.key_for_counter(10).unwrap();
        s.handle(&protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k10, &[1]),
            commitment: key_commitment(&k10),
        }]));
        // Sanity: walking forward from counter 30's key passes counter 10's.
        let t30 = chain.key_for_counter(30).unwrap();
        assert_eq!(walk_forward(&t30, 20), k10);
        decode_result(&s.handle(&protocol::encode_search(&tag, &t30))).unwrap();
        assert_eq!(s.stats().chain_steps, 20);
    }

    #[test]
    fn sharded_server_answers_like_single_shard() {
        // The same append/search conversation against 1 and 5 shards must
        // be indistinguishable on the wire.
        let mut single = server();
        let mut sharded = Scheme2Server::open(
            Scheme2Config::standard().with_chain_length(64),
            IndexOptions {
                shards: 5,
                ..IndexOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sharded.num_shards(), 5);
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let docs: Vec<(u64, Vec<u8>)> = (0..8u64).map(|i| (i, vec![i as u8; 4])).collect();
        let mut tags = Vec::new();
        let mut entries = Vec::new();
        for i in 0..16u8 {
            let mut tag = [0u8; 32];
            tag[0] = i.wrapping_mul(41);
            tag[1] = i;
            tags.push(tag);
            let k = chain.key_for_counter(1).unwrap();
            entries.push(GenerationEntry {
                tag,
                sealed_ids: sealed_ids(&k, &[u64::from(i % 8)]),
                commitment: key_commitment(&k),
            });
        }
        for s in [&mut single, &mut sharded] {
            decode_ack(&s.handle(&protocol::encode_put_docs(&docs))).unwrap();
            decode_ack(&s.handle(&protocol::encode_append_generations(&entries))).unwrap();
        }
        assert_eq!(single.unique_keywords(), sharded.unique_keywords());
        let t2 = chain.key_for_counter(2).unwrap();
        for tag in &tags {
            let a = single.handle(&protocol::encode_search(tag, &t2));
            let b = sharded.handle(&protocol::encode_search(tag, &t2));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn apply_batch_combines_docs_and_generations() {
        let s = server();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        let k = chain.key_for_counter(1).unwrap();
        let tag = [4u8; 32];
        let docs = protocol::encode_put_docs(&[(1, b"d".to_vec())]);
        let gens = protocol::encode_append_generations(&[GenerationEntry {
            tag,
            sealed_ids: sealed_ids(&k, &[1]),
            commitment: key_commitment(&k),
        }]);
        decode_ack(&s.apply_batch(&[&docs, &gens])).unwrap();
        assert_eq!(s.stored_docs(), 1);
        assert_eq!(s.unique_keywords(), 1);

        let resp = s.handle_shared(&protocol::encode_search(&tag, &k));
        assert_eq!(decode_result(&resp).unwrap(), vec![(1, b"d".to_vec())]);
    }

    #[test]
    fn apply_batch_rejects_non_mutations() {
        let s = server();
        let resp = s.apply_batch(&[&protocol::encode_reset_index()]);
        assert!(decode_ack(&resp).is_err());
    }

    #[test]
    fn searches_see_acked_appends_through_snapshots() {
        // Read-your-writes through the snapshot path: an acked append is
        // immediately visible to a search, and the cache write-back
        // republishes so the *next* search decrypts nothing.
        let s = Scheme2Server::open(
            Scheme2Config::standard().with_chain_length(64),
            IndexOptions {
                shards: 4,
                ..IndexOptions::default()
            },
        )
        .unwrap();
        let chain = HashChain::new(&[b"kw", b"key"], 64);
        for i in 0..16u8 {
            let mut tag = [0u8; 32];
            tag[0] = i;
            tag[1] = i.wrapping_mul(59);
            let k = chain.key_for_counter(1).unwrap();
            s.handle_shared(&protocol::encode_put_docs(&[(u64::from(i), vec![i; 3])]));
            let resp = s.handle_shared(&protocol::encode_append_generations(&[GenerationEntry {
                tag,
                sealed_ids: sealed_ids(&k, &[u64::from(i)]),
                commitment: key_commitment(&k),
            }]));
            decode_ack(&resp).unwrap();
            let docs = decode_result(&s.handle_shared(&protocol::encode_search(&tag, &k))).unwrap();
            assert_eq!(docs, vec![(u64::from(i), vec![i; 3])]);
            // Repeat search hits the written-back cache.
            decode_result(&s.handle_shared(&protocol::encode_search(&tag, &k))).unwrap();
        }
        assert_eq!(
            s.stats().generations_decrypted,
            16,
            "second searches cached"
        );
        assert_eq!(s.stats().generations_from_cache, 16);
        // 16 appends + 16 cache write-backs published snapshots.
        assert_eq!(s.commit_counters().snapshot_swaps, 32);
    }
}
