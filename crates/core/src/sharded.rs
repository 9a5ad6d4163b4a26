//! The sharded, journaled keyword index both scheme servers are built on.
//!
//! Scheme 1 and Scheme 2 differ only in what a keyword tag maps to and
//! how a search reads it. Everything else — shard routing, group commit,
//! copy-on-write search snapshots, checkpoints, crash recovery, health
//! and scrub — lives here once, in [`ShardedIndex`]. A scheme plugs in
//! through [`SchemeEntry`]: its per-tag value type, one value codec
//! (shared by the btree snapshot and the lsm keyword map), its index-wide
//! metadata, its journal replay, and its file-name prefix. The scheme
//! servers keep only request decoding, their search paths and their
//! stats; every search path stays monomorphized over its entry type.
//!
//! ## Sharding, group commit and snapshot reads
//!
//! The keyword index is partitioned into N shards by
//! [`crate::shard::shard_of`] over the tag — a public function of data the
//! server already sees, so the leakage profile is unchanged (DESIGN.md
//! §4d/§4e). Each shard is a pipeline, not a single mutex:
//!
//! * **Mutations** stage their journal record into the shard's
//!   [`GroupCommitter`], which batches concurrent records into one
//!   vectored write + one fsync. Only after its group's fsync does a
//!   mutation apply to the shard tree — in sequence-number order, enforced
//!   by a per-shard condvar — and only after applying is it acknowledged.
//! * **Searches** never touch the shard mutex: every apply publishes an
//!   immutable copy-on-write `Snapshot` ([`BpTree`] clones are O(1)
//!   structural shares), and reads resolve tags against it, so a search
//!   never queues behind an in-flight fsync. A global epoch seqlock makes
//!   multi-shard batch swaps atomic to readers: the coordinator publishes
//!   all touched shards inside an odd-epoch window and readers retry
//!   around it.
//!
//! Mutations touching several shards stage [`crate::shard`] batch slices
//! under every affected committer's stage lock (ascending), so crash
//! recovery keeps them all-or-nothing; they apply under all affected data
//! locks.
//!
//! ## Lock order
//!
//! `meta` → stage locks ascending → data locks ascending → document store.
//!
//! The index-wide [`SchemeEntry::Meta`] sits in the barrier lock. Every
//! mutation holds it for reading across its whole stage→apply pipeline;
//! checkpoints, repairs and scheme operations that rewrite the meta hold
//! it for writing, so they run fully quiesced.
//!
//! ## On-disk layout
//!
//! Per durable directory, with `P` the scheme's [`SchemeEntry::PREFIX`]:
//! `P.meta` (shard manifest), `P.wal` / `P.<i>.wal` (shard journals),
//! `P.index` / `P.<i>.index` (btree snapshots) or `P.kw<i>*` (lsm keyword
//! maps), plus the document store's files and `backend.meta`. Shard 0
//! keeps the pre-sharding names so single-shard directories stay readable
//! by and from older layouts.

use crate::commit::{CommitCounters, CommitStats, GroupCommitter, StageGuard};
use crate::error::{Result, SseError};
use crate::health::{ScrubFindings, TenantHealth};
use crate::journal::{IndexJournal, ServerRecovery};
use crate::proto_common;
use crate::shard::{self, shard_of, BatchId};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use sse_index::bptree::BpTree;
use sse_net::wire::{WireReader, WireWriter};
use sse_storage::crc32::crc32;
use sse_storage::lsm::{LsmDocStore, LsmKeywordMap};
use sse_storage::store::{DocStore, StoreOptions};
use sse_storage::wal::{self, WalVerdict};
use sse_storage::{
    resolve_backend, BackendCounters, BackendKind, DocBlobStore, KeywordMap, RealVfs, StorageError,
    Vfs,
};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

/// What a scheme stores per keyword tag, and how it persists.
///
/// Implemented once per scheme by a marker type; [`ShardedIndex`] does
/// the rest. The value codec serves both storage backends: a btree
/// snapshot entry is the tag followed by [`SchemeEntry::put_value`], and
/// an lsm keyword-map value is exactly the `put_value` bytes.
pub trait SchemeEntry: Sized + Send + Sync + 'static {
    /// What one keyword tag maps to.
    type Value: Clone + Send + Sync;
    /// Index-wide metadata, carried in every snapshot and persisted in
    /// the snapshot header and the keyword-map meta blob.
    type Meta: Clone + Send + Sync;
    /// File-name prefix of every index file.
    const PREFIX: &'static str;
    /// Btree snapshot magic.
    const MAGIC: &'static [u8; 8];

    /// Append one value's bytes.
    fn put_value(value: &Self::Value, w: &mut WireWriter);

    /// Read one value written by [`SchemeEntry::put_value`], validating it
    /// against the index metadata.
    ///
    /// # Errors
    /// Wire errors, or [`StorageError::Corrupt`] on a value the metadata
    /// rules out.
    fn get_value(r: &mut WireReader<'_>, meta: &Self::Meta) -> Result<Self::Value>;

    /// Append the persisted form of the metadata (may be empty).
    fn put_meta(meta: &Self::Meta, w: &mut WireWriter);

    /// Read the persisted metadata and check it matches `meta`.
    ///
    /// # Errors
    /// Wire errors, or [`StorageError::Corrupt`] on a mismatch.
    fn check_meta(r: &mut WireReader<'_>, meta: &Self::Meta) -> Result<()>;

    /// Re-apply one journaled shard-local mutation during recovery. No
    /// re-journaling and no validation: the record was validated before
    /// it was journaled.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] on a record that is not a mutation.
    fn replay(shard: &mut ShardData<Self>, meta: &mut Self::Meta, record: &[u8]) -> Result<()>;
}

/// How to open a [`ShardedIndex`]: the settable values shared by both
/// scheme servers' `open`.
#[derive(Clone)]
pub struct IndexOptions {
    /// The VFS every file goes through (real, or fault-injecting).
    pub vfs: Arc<dyn Vfs>,
    /// Durable home directory; `None` keeps everything in memory.
    pub dir: Option<PathBuf>,
    /// Index shards. Fixed at directory creation (recorded in the shard
    /// manifest); reopening adopts whatever the directory holds.
    pub shards: usize,
    /// Storage backend. Fixed at directory creation (recorded in
    /// `backend.meta`); reopening under the other backend is a clean
    /// [`StorageError::BackendMismatch`]. Ignored in memory.
    pub backend: BackendKind,
    /// Whether concurrent journal records share one fsync. When false
    /// every record is flushed on its own — the benchmark's baseline arm;
    /// durability and recovery are identical either way.
    pub group_commit: bool,
}

impl Default for IndexOptions {
    /// In memory, one shard, btree, group commit on.
    fn default() -> Self {
        IndexOptions {
            vfs: RealVfs::arc(),
            dir: None,
            shards: 1,
            backend: BackendKind::Btree,
            group_commit: true,
        }
    }
}

impl IndexOptions {
    /// Defaults, persisted under `dir`.
    #[must_use]
    pub fn durable(dir: &Path) -> Self {
        IndexOptions {
            dir: Some(dir.to_path_buf()),
            ..IndexOptions::default()
        }
    }
}

/// A shard's mutable state: the live tree plus the highest op-seq applied
/// to it. Mutations apply in seq order (`applied_seq + 1 == my_seq`).
pub struct ShardData<E: SchemeEntry> {
    pub(crate) tree: BpTree<[u8; 32], E::Value>,
    applied_seq: u64,
    /// Tags mutated since the last checkpoint. Only tracked under the lsm
    /// backend, which flushes exactly these into its keyword map; the
    /// btree backend rewrites the whole snapshot file and never records.
    dirty: HashSet<[u8; 32]>,
    /// The shard was cleared since the last checkpoint (lsm backend).
    cleared: bool,
    /// Durable keyword-map persistence (lsm backend only).
    kw_map: Option<LsmKeywordMap>,
}

impl<E: SchemeEntry> ShardData<E> {
    fn new(kw_map: Option<LsmKeywordMap>) -> Self {
        ShardData {
            tree: BpTree::new(),
            applied_seq: 0,
            dirty: HashSet::new(),
            cleared: false,
            kw_map,
        }
    }

    /// Record a durable mutation of `tag` for the next checkpoint flush.
    pub(crate) fn note_mutated(&mut self, tag: [u8; 32]) {
        if self.kw_map.is_some() {
            self.dirty.insert(tag);
        }
    }

    /// Record that the whole shard was cleared, for the next checkpoint
    /// flush.
    pub(crate) fn note_cleared(&mut self) {
        if self.kw_map.is_some() {
            self.dirty.clear();
            self.cleared = true;
        }
    }
}

/// The immutable view searches resolve against.
pub(crate) struct Snapshot<E: SchemeEntry> {
    pub(crate) tree: BpTree<[u8; 32], E::Value>,
    /// The highest op-seq applied to `tree`: a value derived from the
    /// snapshot stays valid exactly while the shard still publishes it.
    pub(crate) applied_seq: u64,
    /// The index metadata `tree` was built under, so the read path needs
    /// no barrier lock.
    pub(crate) meta: E::Meta,
}

/// One index shard: group-commit pipeline + live tree + search snapshot.
struct ShardSlot<E: SchemeEntry> {
    data: Mutex<ShardData<E>>,
    /// Signaled whenever `applied_seq` advances.
    applied: Condvar,
    committer: GroupCommitter,
    snap: RwLock<Arc<Snapshot<E>>>,
    /// Contended data-lock acquisitions (served via STATS).
    contention: AtomicU64,
}

impl<E: SchemeEntry> ShardSlot<E> {
    /// A slot publishing `data` as its first snapshot.
    fn new(data: ShardData<E>, committer: GroupCommitter, meta: &E::Meta) -> Self {
        ShardSlot {
            snap: RwLock::new(Arc::new(Snapshot {
                tree: data.tree.clone(),
                applied_seq: data.applied_seq,
                meta: meta.clone(),
            })),
            data: Mutex::new(data),
            applied: Condvar::new(),
            committer,
            contention: AtomicU64::new(0),
        }
    }
}

/// N keyword-index shards plus the document store, behind one barrier.
/// See the module docs.
pub struct ShardedIndex<E: SchemeEntry> {
    meta: RwLock<E::Meta>,
    shards: Vec<ShardSlot<E>>,
    /// Seqlock epoch: odd while a multi-shard batch swaps its snapshots.
    epoch: AtomicU64,
    /// Group-commit pipeline counters, shared by every shard's committer.
    commit_stats: Arc<CommitStats>,
    store: RwLock<Box<dyn DocBlobStore>>,
    backend: BackendKind,
    /// Durable home directory (None in memory).
    dir: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
    /// What opening the directory had to repair.
    recovery: ServerRecovery,
    /// Storage write failures degrade the index to read-only until
    /// [`ShardedIndex::repair`] succeeds.
    health: Arc<TenantHealth>,
}

/// Shard `i`'s file name: shard 0 keeps the pre-sharding name.
fn shard_file(prefix: &str, i: usize, ext: &str) -> String {
    if i == 0 {
        format!("{prefix}.{ext}")
    } else {
        format!("{prefix}.{i}.{ext}")
    }
}

fn index_file<E: SchemeEntry>(i: usize) -> String {
    shard_file(E::PREFIX, i, "index")
}

fn journal_file<E: SchemeEntry>(i: usize) -> String {
    shard_file(E::PREFIX, i, "wal")
}

fn corrupt(what: &'static str, detail: String) -> SseError {
    SseError::Storage(StorageError::Corrupt { what, detail })
}

impl<E: SchemeEntry> ShardedIndex<E> {
    /// An empty in-memory index with `shards` shards.
    #[must_use]
    pub(crate) fn in_memory(meta: E::Meta, shards: usize) -> Self {
        let commit_stats = Arc::new(CommitStats::default());
        ShardedIndex {
            shards: (0..shards.max(1))
                .map(|_| {
                    let committer = GroupCommitter::new_in_memory(Arc::clone(&commit_stats));
                    ShardSlot::new(ShardData::new(None), committer, &meta)
                })
                .collect(),
            meta: RwLock::new(meta),
            epoch: AtomicU64::new(0),
            commit_stats,
            store: RwLock::new(Box::new(DocStore::in_memory())),
            backend: BackendKind::Btree,
            dir: None,
            vfs: RealVfs::arc(),
            recovery: ServerRecovery::default(),
            health: Arc::new(TenantHealth::new()),
        }
    }

    /// Open an index as `opts` describe: in memory, or from its durable
    /// directory. Recovery brings back everything acknowledged before a
    /// crash: the document store replays its WAL, each shard's snapshot
    /// or keyword map is loaded and checked against `meta`, and index
    /// mutations journaled after it are re-applied in order (incomplete
    /// cross-shard batches excluded).
    ///
    /// # Errors
    /// Storage errors while opening or recovering, a corrupt snapshot,
    /// keyword map or journal record, or a backend mismatch.
    pub(crate) fn open(meta: E::Meta, opts: IndexOptions) -> Result<Self> {
        let IndexOptions {
            vfs,
            dir,
            shards,
            backend,
            group_commit,
        } = opts;
        let Some(dir) = dir else {
            return Ok(Self::in_memory(meta, shards));
        };
        let manifest = format!("{}.meta", E::PREFIX);
        let backend = resolve_backend(
            vfs.as_ref(),
            &dir,
            backend,
            &[
                &manifest,
                "store.wal",
                "store.snapshot",
                &index_file::<E>(0),
                &journal_file::<E>(0),
            ],
        )?;
        let store_opts = StoreOptions::default();
        let store: Box<dyn DocBlobStore> = match backend {
            BackendKind::Btree => Box::new(DocStore::open_with_vfs(vfs.clone(), &dir, store_opts)?),
            BackendKind::Lsm => {
                Box::new(LsmDocStore::open_with_vfs(vfs.clone(), &dir, store_opts)?)
            }
        };
        let store_recovery = store.recovery_report();
        let n =
            shard::resolve_shard_count(vfs.as_ref(), &dir, &manifest, &index_file::<E>(0), shards)?;
        let mut meta = meta;
        let mut datas = Vec::with_capacity(n);
        let mut journals = Vec::with_capacity(n);
        let mut recoveries = Vec::with_capacity(n);
        for i in 0..n {
            let (data, snapshot_seq) = match backend {
                BackendKind::Btree => {
                    let mut data = ShardData::new(None);
                    let path = dir.join(index_file::<E>(i));
                    let mut seq = 0;
                    if vfs.exists(&path) {
                        let bytes = vfs.read(&path).map_err(StorageError::Io)?;
                        seq = load_snapshot::<E>(&mut data.tree, &meta, &bytes, &path)?;
                    }
                    (data, seq)
                }
                BackendKind::Lsm => {
                    let map =
                        LsmKeywordMap::open(vfs.clone(), &dir, &format!("{}.kw{i}", E::PREFIX))?;
                    check_kw_meta::<E>(&map.meta(), &meta)?;
                    let seq = map.last_seq();
                    let mut tree = BpTree::new();
                    for (tag, value) in map.iter_all()? {
                        tree.insert(tag, decode_value::<E>(&value, &meta)?);
                    }
                    let mut data = ShardData::new(Some(map));
                    data.tree = tree;
                    (data, seq)
                }
            };
            let (journal, recovery) = IndexJournal::open_with_vfs(
                vfs.clone(),
                &dir.join(journal_file::<E>(i)),
                true,
                snapshot_seq,
            )?;
            datas.push(data);
            journals.push(journal);
            recoveries.push(recovery);
        }
        // Replayed records are not yet in the keyword maps: replay notes
        // their tags dirty so the next checkpoint flushes them.
        let plan = shard::resolve_shard_recoveries(&recoveries)?;
        let mut replayed = 0u64;
        for (data, records) in datas.iter_mut().zip(&plan.apply) {
            for record in records {
                E::replay(data, &mut meta, record)?;
                replayed += 1;
            }
        }
        let commit_stats = Arc::new(CommitStats::default());
        let shards = datas
            .into_iter()
            .zip(journals)
            .map(|(mut data, journal)| {
                data.applied_seq = journal.last_seq();
                let committer =
                    GroupCommitter::new_durable(journal, group_commit, Arc::clone(&commit_stats));
                ShardSlot::new(data, committer, &meta)
            })
            .collect();
        Ok(ShardedIndex {
            meta: RwLock::new(meta),
            shards,
            epoch: AtomicU64::new(0),
            commit_stats,
            store: RwLock::new(store),
            backend,
            dir: Some(dir),
            vfs,
            recovery: ServerRecovery {
                index_ops_replayed: replayed,
                index_torn_bytes: recoveries.iter().map(|r| r.torn_bytes_truncated).sum(),
                store_snapshot_loaded: store_recovery.snapshot_loaded,
                store_wal_records_replayed: store_recovery.wal_records_replayed,
                store_torn_bytes: store_recovery.torn_bytes_truncated,
            },
            health: Arc::new(TenantHealth::new()),
        })
    }

    // ---- operational surface ------------------------------------------------

    /// This index's health cell, shared with the serving daemon's request
    /// router and the background scrub.
    #[must_use]
    pub fn health(&self) -> &Arc<TenantHealth> {
        &self.health
    }

    /// What opening the durable directory had to repair.
    #[must_use]
    pub fn recovery(&self) -> ServerRecovery {
        self.recovery
    }

    /// Number of index shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Contended shard-lock acquisitions since startup, per shard.
    #[must_use]
    pub fn shard_contention(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.contention.load(Ordering::Relaxed))
            .collect()
    }

    /// Group-commit pipeline counters (groups, ops, fsyncs saved,
    /// snapshot swaps) since startup.
    #[must_use]
    pub fn commit_counters(&self) -> CommitCounters {
        self.commit_stats.counters()
    }

    /// The storage backend persisting this index.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Per-backend storage counters (runs, compactions, bloom hit rates):
    /// the document store's plus every shard keyword map's. All zero
    /// under the btree backend.
    #[must_use]
    pub fn backend_counters(&self) -> BackendCounters {
        let mut c = self.store.read().counters();
        for i in 0..self.shards.len() {
            if let Some(map) = &self.lock_data(i).kw_map {
                c.merge(&map.counters());
            }
        }
        c
    }

    /// Number of unique keywords indexed (`u`).
    #[must_use]
    pub fn unique_keywords(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_data(i).tree.len())
            .sum()
    }

    /// Number of stored documents.
    #[must_use]
    pub fn stored_docs(&self) -> usize {
        self.store.read().len()
    }

    /// Height of the tallest shard's tag tree (the `O(log u)` factor,
    /// observable).
    #[must_use]
    pub fn tree_height(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_data(i).tree.height())
            .max()
            .unwrap_or(0)
    }

    /// Export the stored encrypted documents `(id, E_km(M_i))` in id order
    /// (half of the adversary's view).
    #[must_use]
    pub fn export_blobs(&self) -> Vec<(u64, Vec<u8>)> {
        let store = self.store.read();
        let ids = store.doc_ids();
        store.get_many(&ids)
    }

    /// Checkpoint everything durable into `dir`, in crash-safe order:
    /// document store snapshot, then every shard's index snapshot (each
    /// recording its `applied_seq` as `last_op_seq`) or keyword-map flush,
    /// then every journal truncation. The barrier write lock quiesces the
    /// mutation pipeline first, so every staged record is both durable
    /// and applied — no journal may be reset while a group is in flight,
    /// and the snapshots-before-any-reset order keeps cross-shard batch
    /// slices resolvable.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn checkpoint(&self, dir: &Path) -> Result<()> {
        let meta = self.meta.write();
        let mut datas = self.lock_all_data();
        self.persist(&mut datas, &meta, dir)?;
        for slot in &self.shards {
            slot.committer.reset_journal()?;
        }
        Ok(())
    }

    /// Checkpoint into the index's own home directory; no-op in memory.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn checkpoint_home(&self) -> Result<()> {
        match &self.dir {
            Some(dir) => self.checkpoint(dir),
            None => Ok(()),
        }
    }

    /// Attempt to repair a degraded index — the scrub's probe-write path.
    ///
    /// Under full quiescence (barrier write lock + all data locks, so no
    /// mutation is staging, flushing or applying), re-persist every
    /// shard's *applied* state exactly as a checkpoint does, then replace
    /// each shard's journal with a freshly opened empty one, clearing any
    /// group-commit poison. Seqs of failed groups are reclaimed: those
    /// records were never acknowledged and the fresh journal restarts
    /// densely at `applied_seq + 1`. The end-to-end write pass is itself
    /// the probe write: on success the health cell returns to Healthy.
    ///
    /// # Errors
    /// Filesystem errors (the disk is still bad); the index stays
    /// Degraded and the scrub retries later. In-memory indexes have
    /// nothing to repair and always succeed.
    pub fn repair(&self) -> Result<()> {
        let Some(dir) = &self.dir else {
            self.health.note_probe_ok();
            return Ok(());
        };
        let meta = self.meta.write();
        let mut datas = self.lock_all_data();
        self.persist(&mut datas, &meta, dir)?;
        for (i, data) in datas.iter().enumerate() {
            let path = dir.join(journal_file::<E>(i));
            let _ = self.vfs.remove_file(&path);
            let (journal, _) =
                IndexJournal::open_with_vfs(self.vfs.clone(), &path, true, data.applied_seq)?;
            self.shards[i].committer.replace_journal(journal);
        }
        self.health.note_probe_ok();
        Ok(())
    }

    /// Background integrity pass over this index's on-disk artifacts.
    ///
    /// Checks every checksum the storage formats carry: the per-shard
    /// journals and the document store's WAL (CRC-framed records —
    /// append-only and prefix-stable, so scanning a live log is safe),
    /// the btree snapshots (magic + body CRC; replaced atomically via
    /// temp-file + rename, so a concurrent checkpoint can never be seen
    /// half-written), and under the lsm backend every live run's index
    /// and value CRCs (under the shard/store lock, since flushes swap run
    /// files). Heap pages carry no checksums and are skipped.
    ///
    /// A torn WAL tail is a *repairable* finding, not corruption — it is
    /// exactly what a crash (or a read racing an append) leaves behind.
    /// A checksum mismatch anywhere else is confirmed corruption.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] (wrapped) on confirmed corruption — the
    /// caller quarantines; plain I/O errors are transient and do not.
    pub fn verify_files(&self) -> Result<ScrubFindings> {
        let mut findings = ScrubFindings::default();
        let Some(dir) = &self.dir else {
            return Ok(findings);
        };
        let mut wal_paths: Vec<PathBuf> = (0..self.shards.len())
            .map(|i| dir.join(journal_file::<E>(i)))
            .collect();
        wal_paths.push(dir.join(match self.backend {
            BackendKind::Lsm => "doc.wal",
            BackendKind::Btree => "store.wal",
        }));
        for path in &wal_paths {
            match wal::verify_file(self.vfs.as_ref(), path)? {
                WalVerdict::Clean { .. } => findings.artifacts_verified += 1,
                WalVerdict::TornTail { .. } => {
                    findings.artifacts_verified += 1;
                    findings.torn_tails_seen += 1;
                }
                WalVerdict::Corrupt { at } => {
                    return Err(corrupt(
                        "wal segment",
                        format!(
                            "scrub: mid-log checksum mismatch at byte {at} in {}",
                            path.display()
                        ),
                    ));
                }
            }
        }
        for i in 0..self.shards.len() {
            match self.backend {
                BackendKind::Btree => {
                    let path = dir.join(index_file::<E>(i));
                    let bytes = match self.vfs.read(&path) {
                        Ok(b) => b,
                        // No checkpoint yet: nothing to verify.
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                        Err(e) => return Err(SseError::Storage(StorageError::Io(e))),
                    };
                    snapshot_body::<E>(&bytes, &path)?;
                    findings.artifacts_verified += 1;
                }
                BackendKind::Lsm => {
                    if let Some(map) = &self.lock_data(i).kw_map {
                        findings.artifacts_verified += map.verify_runs()?;
                    }
                }
            }
        }
        findings.artifacts_verified += self.store.read().verify()?;
        Ok(findings)
    }

    /// Persist the applied state of every shard (caller holds the barrier
    /// write lock and every data lock): document-store checkpoint, then
    /// btree snapshots plus one directory fsync, or lsm keyword-map
    /// flushes.
    fn persist(
        &self,
        datas: &mut [MutexGuard<'_, ShardData<E>>],
        meta: &E::Meta,
        dir: &Path,
    ) -> Result<()> {
        self.store.write().checkpoint()?;
        match self.backend {
            BackendKind::Btree => {
                for (i, data) in datas.iter().enumerate() {
                    self.save_snapshot(data, meta, &dir.join(index_file::<E>(i)))?;
                }
                // The snapshots committed via rename; one dir fsync makes
                // all the renames durable before any journal is reset.
                self.vfs.sync_dir(dir).map_err(StorageError::Io)?;
            }
            BackendKind::Lsm => {
                for data in datas.iter_mut() {
                    flush_kw_map(data, meta)?;
                }
            }
        }
        Ok(())
    }

    /// Persist one shard's snapshot: `[MAGIC][crc32 of body][body]`, the
    /// body being `applied_seq`, the metadata, the entry count, then
    /// `tag ‖ value` per entry in tag order. Written to a temp file and
    /// renamed into place.
    fn save_snapshot(&self, data: &ShardData<E>, meta: &E::Meta, path: &Path) -> Result<()> {
        let mut body = WireWriter::new();
        body.put_u64(data.applied_seq);
        E::put_meta(meta, &mut body);
        body.put_u64(data.tree.len() as u64);
        for (tag, value) in data.tree.iter() {
            body.put_array(tag);
            E::put_value(value, &mut body);
        }
        let body = body.finish();
        let tmp = path.with_extension("tmp");
        {
            let mut f = self.vfs.create(&tmp).map_err(StorageError::Io)?;
            let mut header = Vec::with_capacity(12);
            header.extend_from_slice(E::MAGIC);
            header.extend_from_slice(&crc32(&body).to_le_bytes());
            f.write_all(&header).map_err(StorageError::Io)?;
            f.write_all(&body).map_err(StorageError::Io)?;
            f.sync_data().map_err(StorageError::Io)?;
        }
        self.vfs.rename(&tmp, path).map_err(StorageError::Io)?;
        Ok(())
    }

    // ---- scheme-facing pipeline ---------------------------------------------

    /// The index metadata, read-locked: hold it across a mutation's whole
    /// stage→apply pipeline.
    pub(crate) fn meta(&self) -> RwLockReadGuard<'_, E::Meta> {
        self.meta.read()
    }

    /// The index metadata, write-locked: every mutation is quiesced while
    /// the guard lives.
    pub(crate) fn meta_mut(&self) -> RwLockWriteGuard<'_, E::Meta> {
        self.meta.write()
    }

    /// The shard owning `tag`.
    pub(crate) fn shard_for(&self, tag: &[u8; 32]) -> usize {
        shard_of(tag, self.shards.len())
    }

    /// Partition `items` by the shard of their tag, preserving input order
    /// within each shard.
    pub(crate) fn group_by_shard<T>(
        &self,
        items: Vec<T>,
        tag: impl Fn(&T) -> &[u8; 32],
    ) -> BTreeMap<usize, Vec<T>> {
        let mut groups: BTreeMap<usize, Vec<T>> = BTreeMap::new();
        for item in items {
            groups
                .entry(self.shard_for(tag(&item)))
                .or_default()
                .push(item);
        }
        groups
    }

    /// Acquire shard `i`'s data lock, counting a contended acquisition
    /// when the lock was not immediately free.
    pub(crate) fn lock_data(&self, i: usize) -> MutexGuard<'_, ShardData<E>> {
        let slot = &self.shards[i];
        match slot.data.try_lock() {
            Some(guard) => guard,
            None => {
                slot.contention.fetch_add(1, Ordering::Relaxed);
                slot.data.lock()
            }
        }
    }

    /// Lock every shard's data in ascending order.
    pub(crate) fn lock_all_data(&self) -> Vec<MutexGuard<'_, ShardData<E>>> {
        (0..self.shards.len()).map(|i| self.lock_data(i)).collect()
    }

    /// Fetch shard `i`'s search snapshot, retrying around multi-shard
    /// swap windows (odd epoch) so a reader never observes a half-swapped
    /// batch across shards.
    pub(crate) fn snap(&self, i: usize) -> Arc<Snapshot<E>> {
        loop {
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snap = Arc::clone(&self.shards[i].snap.read());
            if self.epoch.load(Ordering::Acquire) == before {
                return snap;
            }
        }
    }

    /// Publish shard `i`'s current tree as the immutable search snapshot.
    /// O(1): the tree clone shares all nodes copy-on-write.
    fn publish(&self, i: usize, data: &ShardData<E>, meta: &E::Meta) {
        *self.shards[i].snap.write() = Arc::new(Snapshot {
            tree: data.tree.clone(),
            applied_seq: data.applied_seq,
            meta: meta.clone(),
        });
        self.commit_stats.note_swap();
    }

    /// Opportunistically edit shard `i`'s live tree outside the mutation
    /// pipeline — for in-memory derived state that is never journaled.
    /// `try_lock` only, so a reader never queues behind a mutation; when
    /// `edit` returns true the shard republishes its snapshot (same seq,
    /// same metadata).
    pub(crate) fn try_edit(
        &self,
        i: usize,
        edit: impl FnOnce(&mut BpTree<[u8; 32], E::Value>) -> bool,
    ) {
        let Some(mut data) = self.shards[i].data.try_lock() else {
            return;
        };
        if edit(&mut data.tree) {
            let meta = self.shards[i].snap.read().meta.clone();
            self.publish(i, &data, &meta);
        }
    }

    /// Wait until shard `i` has applied every predecessor of `seq`, then
    /// run `apply`, advance `applied_seq`, publish the snapshot and wake
    /// successors. The caller must have made `seq` durable first.
    fn apply_at(&self, i: usize, seq: u64, meta: &E::Meta, apply: impl FnOnce(&mut ShardData<E>)) {
        let slot = &self.shards[i];
        let mut data = self.wait_ready(i, seq);
        apply(&mut data);
        data.applied_seq = seq;
        self.publish(i, &data, meta);
        drop(data);
        slot.applied.notify_all();
    }

    /// Lock shard `i`'s data once it has applied every predecessor of
    /// `seq`. Stable once reached: `seq` is the only possible successor.
    fn wait_ready(&self, i: usize, seq: u64) -> MutexGuard<'_, ShardData<E>> {
        let mut data = self.lock_data(i);
        while data.applied_seq + 1 != seq {
            data = self.shards[i]
                .applied
                .wait(data)
                .unwrap_or_else(PoisonError::into_inner);
        }
        data
    }

    /// Run one mutation through the full pipeline: stage its journal
    /// record(s) (one per affected shard, batch slices when several),
    /// wait for the group fsync(s), then apply in seq order and publish
    /// new snapshots carrying `meta`. `idxs` must be ascending and
    /// non-empty; the caller holds the barrier (read or write) throughout.
    ///
    /// On partial durability (some shard's journal failed) nothing is
    /// applied anywhere: durable shards advance `applied_seq` without
    /// mutating (recovery's sibling-completeness check discards their
    /// on-disk slices too), failed shards are poisoned, and the client
    /// gets an error — the mutation is never acknowledged.
    pub(crate) fn commit_mutation(
        &self,
        idxs: &[usize],
        encode_for: impl Fn(usize) -> Vec<u8>,
        mut apply_for: impl FnMut(usize, &mut ShardData<E>),
        meta: &E::Meta,
    ) -> Result<()> {
        debug_assert!(idxs.windows(2).all(|w| w[0] < w[1]));
        if idxs.len() == 1 {
            let i = idxs[0];
            let seq = self.shards[i].committer.stage(&encode_for(i))?;
            self.shards[i].committer.wait_durable(seq)?;
            self.apply_at(i, seq, meta, |data| apply_for(i, data));
            return Ok(());
        }

        // Phase S — stage every slice atomically under all stage locks
        // (ascending), so the batch id (coordinator shard, coordinator
        // seq) is consistent and no foreign record interleaves.
        let shard_set: Vec<u32> = idxs.iter().map(|&i| i as u32).collect();
        let mut guards: Vec<_> = idxs
            .iter()
            .map(|&i| self.shards[i].committer.lock())
            .collect();
        if guards.iter().any(StageGuard::poisoned) {
            return Err(SseError::Storage(StorageError::Io(std::io::Error::other(
                "shard journal disabled by failed group commit",
            ))));
        }
        let batch = BatchId {
            coordinator: shard_set[0],
            seq: guards[0].next_seq(),
        };
        let mut seqs = Vec::with_capacity(idxs.len());
        for (guard, &i) in guards.iter_mut().zip(idxs) {
            // Cannot fail: staging only errors on poison, checked above
            // while continuously holding every stage lock.
            seqs.push(guard.stage(&shard::encode_slice(batch, &shard_set, &encode_for(i)))?);
        }
        drop(guards);

        // Phase D — wait for every shard's group fsync.
        let mut durable = vec![false; idxs.len()];
        let mut first_err = None;
        for (k, &i) in idxs.iter().enumerate() {
            match self.shards[i].committer.wait_durable(seqs[k]) {
                Ok(()) => durable[k] = true,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let apply = first_err.is_none();

        // Phase R — wait (one shard at a time, holding nothing else)
        // until each durable shard has applied all our predecessors.
        for (k, &i) in idxs.iter().enumerate() {
            if durable[k] {
                drop(self.wait_ready(i, seqs[k]));
            }
        }

        // Phase A — lock all durable shards (ascending) and swap them
        // atomically inside an odd-epoch window so snapshot readers see
        // the batch all-or-nothing.
        if apply {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        let mut held: Vec<(usize, MutexGuard<'_, ShardData<E>>)> = Vec::with_capacity(idxs.len());
        for (k, &i) in idxs.iter().enumerate() {
            if durable[k] {
                held.push((k, self.lock_data(i)));
            }
        }
        for (k, data) in &mut held {
            debug_assert_eq!(data.applied_seq + 1, seqs[*k], "readiness must be stable");
            if apply {
                apply_for(idxs[*k], data);
            }
            data.applied_seq = seqs[*k];
        }
        if apply {
            for (k, data) in &held {
                self.publish(idxs[*k], data, meta);
            }
        }
        drop(held);
        if apply {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        for (k, &i) in idxs.iter().enumerate() {
            if durable[k] {
                self.shards[i].applied.notify_all();
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Report a failed mutation: storage-typed failures degrade the index
    /// to read-only (validation and protocol errors do not — they say
    /// nothing about the disk), then encode the protocol error response.
    pub(crate) fn mutation_failed(&self, e: &SseError) -> Vec<u8> {
        if matches!(e, SseError::Storage(_)) {
            self.health.note_storage_error(&e.to_string());
        }
        proto_common::encode_error(&e.to_string())
    }

    /// The response to a mutation's outcome: `Ack`, or the error through
    /// [`Self::mutation_failed`].
    pub(crate) fn respond(&self, result: Result<()>) -> Vec<u8> {
        match result {
            Ok(()) => proto_common::encode_ack(),
            Err(e) => self.mutation_failed(&e),
        }
    }

    /// Serve a `Checkpoint` request.
    pub(crate) fn checkpoint_request(&self) -> Vec<u8> {
        match &self.dir {
            Some(dir) => self.respond(self.checkpoint(dir)),
            None => proto_common::encode_error("checkpoint requested on an in-memory server"),
        }
    }

    /// Store `docs`; on a storage failure, the error response (the index
    /// degrades, see [`Self::mutation_failed`]).
    pub(crate) fn put_docs(&self, docs: &[(u64, Vec<u8>)]) -> std::result::Result<(), Vec<u8>> {
        if docs.is_empty() {
            return Ok(());
        }
        let mut store = self.store.write();
        for (id, blob) in docs {
            if let Err(e) = store.put(*id, blob) {
                drop(store);
                return Err(self.mutation_failed(&SseError::Storage(e)));
            }
        }
        Ok(())
    }

    /// Delete `ids` from the document store. An unknown id is a no-op;
    /// any other failure is returned as the error response (the index
    /// degrades, see [`Self::mutation_failed`]).
    pub(crate) fn remove_docs(&self, ids: &[u64]) -> std::result::Result<(), Vec<u8>> {
        let mut store = self.store.write();
        for &id in ids {
            match store.delete(id) {
                Ok(()) | Err(StorageError::RecordNotFound) => {}
                Err(e) => {
                    drop(store);
                    return Err(self.mutation_failed(&SseError::Storage(e)));
                }
            }
        }
        Ok(())
    }

    /// Fetch the stored blobs of `ids` (unknown ids are skipped).
    pub(crate) fn get_docs(&self, ids: &[u64]) -> Vec<(u64, Vec<u8>)> {
        self.store.read().get_many(ids)
    }
}

/// The operational surface of an index, independent of its scheme —
/// what the serving daemon's tenant registry, scrub and STATS call.
pub trait IndexOps: Send + Sync {
    /// See [`ShardedIndex::checkpoint_home`].
    ///
    /// # Errors
    /// Filesystem errors.
    fn checkpoint_home(&self) -> Result<()>;
    /// See [`ShardedIndex::recovery`].
    fn recovery(&self) -> ServerRecovery;
    /// See [`ShardedIndex::health`].
    fn health(&self) -> &Arc<TenantHealth>;
    /// See [`ShardedIndex::repair`].
    ///
    /// # Errors
    /// Filesystem errors.
    fn repair(&self) -> Result<()>;
    /// See [`ShardedIndex::verify_files`].
    ///
    /// # Errors
    /// Confirmed corruption, or transient I/O errors.
    fn verify_files(&self) -> Result<ScrubFindings>;
    /// See [`ShardedIndex::shard_contention`].
    fn shard_contention(&self) -> Vec<u64>;
    /// See [`ShardedIndex::commit_counters`].
    fn commit_counters(&self) -> CommitCounters;
    /// See [`ShardedIndex::backend`].
    fn backend(&self) -> BackendKind;
    /// See [`ShardedIndex::backend_counters`].
    fn backend_counters(&self) -> BackendCounters;
}

impl<E: SchemeEntry> IndexOps for ShardedIndex<E> {
    fn checkpoint_home(&self) -> Result<()> {
        ShardedIndex::checkpoint_home(self)
    }
    fn recovery(&self) -> ServerRecovery {
        ShardedIndex::recovery(self)
    }
    fn health(&self) -> &Arc<TenantHealth> {
        ShardedIndex::health(self)
    }
    fn repair(&self) -> Result<()> {
        ShardedIndex::repair(self)
    }
    fn verify_files(&self) -> Result<ScrubFindings> {
        ShardedIndex::verify_files(self)
    }
    fn shard_contention(&self) -> Vec<u64> {
        ShardedIndex::shard_contention(self)
    }
    fn commit_counters(&self) -> CommitCounters {
        ShardedIndex::commit_counters(self)
    }
    fn backend(&self) -> BackendKind {
        ShardedIndex::backend(self)
    }
    fn backend_counters(&self) -> BackendCounters {
        ShardedIndex::backend_counters(self)
    }
}

/// Flush one lsm-backed shard: clear if the shard was cleared, write every
/// dirty tag's current value (or a tombstone if it vanished), then commit
/// one run carrying `applied_seq` and the metadata as the map's `meta`
/// blob. No-op for btree shards.
fn flush_kw_map<E: SchemeEntry>(data: &mut ShardData<E>, meta: &E::Meta) -> Result<()> {
    let ShardData {
        tree,
        applied_seq,
        dirty,
        cleared,
        kw_map,
    } = data;
    let Some(map) = kw_map else { return Ok(()) };
    if *cleared {
        map.clear()?;
    }
    for tag in dirty.iter() {
        match tree.get(tag) {
            Some(value) => {
                let mut w = WireWriter::new();
                E::put_value(value, &mut w);
                map.put(*tag, w.finish())?;
            }
            None => map.delete(tag)?,
        }
    }
    let mut blob = WireWriter::new();
    E::put_meta(meta, &mut blob);
    map.flush(*applied_seq, &blob.finish())?;
    dirty.clear();
    *cleared = false;
    Ok(())
}

/// Validate a keyword map's `meta` blob against the configured metadata,
/// like the btree snapshot header. An empty blob means the map was never
/// flushed (or the scheme persists no metadata).
fn check_kw_meta<E: SchemeEntry>(blob: &[u8], meta: &E::Meta) -> Result<()> {
    if blob.is_empty() {
        return Ok(());
    }
    let mut r = WireReader::new(blob);
    E::check_meta(&mut r, meta)?;
    r.finish()?;
    Ok(())
}

/// Decode one keyword-map value.
fn decode_value<E: SchemeEntry>(bytes: &[u8], meta: &E::Meta) -> Result<E::Value> {
    let mut r = WireReader::new(bytes);
    let value = E::get_value(&mut r, meta)?;
    r.finish()?;
    Ok(value)
}

/// Check a snapshot file's magic and body CRC, returning the body.
fn snapshot_body<'a, E: SchemeEntry>(bytes: &'a [u8], path: &Path) -> Result<&'a [u8]> {
    if bytes.len() < 12 || &bytes[..8] != E::MAGIC {
        return Err(corrupt(
            "index snapshot",
            format!("bad magic or truncated in {}", path.display()),
        ));
    }
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let body = &bytes[12..];
    if crc32(body) != stored_crc {
        return Err(corrupt(
            "index snapshot",
            format!("checksum mismatch in {}", path.display()),
        ));
    }
    Ok(body)
}

/// Decode one shard snapshot into `tree`, returning the `last_op_seq` it
/// covers.
fn load_snapshot<E: SchemeEntry>(
    tree: &mut BpTree<[u8; 32], E::Value>,
    meta: &E::Meta,
    bytes: &[u8],
    path: &Path,
) -> Result<u64> {
    let mut r = WireReader::new(snapshot_body::<E>(bytes, path)?);
    let last_op_seq = r.get_u64()?;
    E::check_meta(&mut r, meta)?;
    // Smallest entry of either scheme: a tag plus one 8-byte length.
    let n = r.get_count(40)?;
    let mut fresh = BpTree::new();
    for _ in 0..n {
        let tag = r.get_array32()?;
        fresh.insert(tag, E::get_value(&mut r, meta)?);
    }
    r.finish()?;
    *tree = fresh;
    Ok(last_op_seq)
}
