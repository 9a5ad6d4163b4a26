//! Multi-tenant routing: one scheme server per `(tenant, scheme)` pair.
//!
//! The hello frame names a tenant; the registry lazily creates that
//! tenant's server-side state on first use and hands out a shared handle.
//! Requests for the same tenant serialize on the tenant's mutex (the
//! scheme servers are sequential state machines); requests for different
//! tenants run on different worker threads concurrently.
//!
//! With a data directory the registry becomes **durable**: each
//! `(tenant, scheme)` database lives under
//! `data_dir/<encoded-tenant>/s1|s2/`, is opened through the scheme
//! server's `open` (replaying any WAL left by a crash), is
//! re-opened eagerly on daemon restart ([`TenantRegistry::preopen_existing`])
//! and is checkpointed by [`TenantRegistry::checkpoint_all`] on graceful
//! shutdown. Tenant names are arbitrary UTF-8; directory names use a
//! reversible percent-encoding restricted to `[A-Za-z0-9_-]`.

use crate::proto::SchemeId;
use parking_lot::Mutex;
use sse_core::commit::CommitCounters;
use sse_core::error::SseError;
use sse_core::health::{HealthState, ScrubFindings, TenantHealth};
use sse_core::journal::ServerRecovery;
use sse_core::proto_common;
use sse_core::scheme1::Scheme1Server;
use sse_core::scheme2::{Scheme2Config, Scheme2Server};
use sse_core::sharded::{IndexOps, IndexOptions};
use sse_net::link::Service;
use sse_storage::{BackendCounters, BackendKind, RealVfs, Vfs};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Upper bound on workers serving one `SEARCH_MANY` batch, the calling
/// worker included. Small batches use one participant per part; larger
/// batches share.
const SEARCH_FANOUT: usize = 8;

/// Size the fan-out for a `SEARCH_MANY` batch of `parts` parts on
/// `cores` cores: the number of *participants*, with the calling worker
/// counted exactly once as participant number one. Helpers beyond the
/// caller are therefore `fanout_limit(..) - 1` — both the legacy scoped
/// pool below and the persistent executor in [`crate::sched`] size from
/// this single definition, so the caller's slot can no longer be
/// double-counted by capping helpers and participants independently.
pub(crate) fn fanout_limit(parts: usize, cores: usize) -> usize {
    parts.min(SEARCH_FANOUT).min(cores.max(1))
}

/// Cached core count. `std::thread::available_parallelism` re-reads the
/// cgroup filesystem on every call (tens of microseconds — more than a
/// memo-hit search), so resolve it once per process.
pub(crate) fn machine_parallelism() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Search-memo counters summed over one tenant database (or, via
/// [`TenantRegistry::search_cache_counters`], over all of them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCacheCounters {
    /// Repeat searches answered from the per-shard chain-key memo.
    pub hits: u64,
    /// Memo-eligible searches that took the cold path.
    pub misses: u64,
    /// Forward hash-chain steps avoided by memo hits.
    pub walk_steps_saved: u64,
}

impl SearchCacheCounters {
    /// Element-wise accumulate.
    pub fn merge(&mut self, other: &SearchCacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.walk_steps_saved += other.walk_steps_saved;
    }
}

/// Health transition counts and current-state tallies summed over one
/// registry's open tenant databases (the STATS health block).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// `Healthy → Degraded` transitions.
    pub degradations: u64,
    /// `Degraded → Healthy` scrub recoveries.
    pub recoveries: u64,
    /// `→ Quarantined` transitions.
    pub quarantines: u64,
    /// Tenants currently `Degraded`.
    pub tenants_degraded: u64,
    /// Tenants currently `Quarantined`.
    pub tenants_quarantined: u64,
}

/// One tenant's scheme server — the concrete state behind a handle, kept
/// as an enum (not `Box<dyn Service>`) so the registry can reach
/// scheme-specific operations like checkpointing.
pub enum TenantDb {
    /// A Scheme 1 (XOR-masked bit-array index) server.
    S1(Scheme1Server),
    /// A Scheme 2 (hash-chain generation list) server.
    S2(Scheme2Server),
}

impl TenantDb {
    /// The scheme-independent operational surface of this database's
    /// index (checkpoint, recovery, health, repair, verify, counters).
    #[must_use]
    pub fn index(&self) -> &dyn IndexOps {
        match self {
            TenantDb::S1(s) => &**s,
            TenantDb::S2(s) => &**s,
        }
    }

    /// Checkpoint to the database's home directory (no-op for in-memory
    /// tenants, which have no home).
    ///
    /// # Errors
    /// Storage errors from the snapshot write.
    pub fn checkpoint_home(&self) -> Result<(), SseError> {
        self.index().checkpoint_home()
    }

    /// What recovery work the open performed.
    #[must_use]
    pub fn recovery(&self) -> ServerRecovery {
        self.index().recovery()
    }

    /// This database's health cell (shared with the scheme server's
    /// mutation error sites and the scrub thread).
    #[must_use]
    pub fn health(&self) -> &Arc<TenantHealth> {
        self.index().health()
    }

    /// Repair a degraded database under quiescence: checkpoint the
    /// current applied state and start fresh journals, then probe-promote
    /// back to `Healthy`. See
    /// [`sse_core::sharded::ShardedIndex::repair`].
    ///
    /// # Errors
    /// Storage errors if the underlying fault persists (the database
    /// stays `Degraded`; the next scrub pass retries).
    pub fn repair(&self) -> Result<(), SseError> {
        self.index().repair()
    }

    /// Checksum-verify every on-disk artifact of this database (scrub
    /// integrity pass). See
    /// [`sse_core::sharded::ShardedIndex::verify_files`].
    ///
    /// # Errors
    /// `StorageError::Corrupt` on confirmed corruption (the scrub
    /// quarantines); other storage errors are transient.
    pub fn verify_files(&self) -> Result<ScrubFindings, SseError> {
        self.index().verify_files()
    }

    /// Whether an envelope request would mutate this database — the
    /// routing predicate for degraded (read-only) serving. `UPDATE_MANY`
    /// is always a mutation and `SEARCH_MANY` never is; for `DATA` the
    /// scheme request tag (first payload byte) decides. Unknown and empty
    /// payloads classify as mutations: the scheme server will reject them
    /// anyway, and a degraded tenant must fail closed, not execute a
    /// request the classifier could not read.
    #[must_use]
    pub fn is_mutation(&self, kind: u8, payload: &[u8]) -> bool {
        match kind {
            crate::proto::KIND_UPDATE_MANY => true,
            crate::proto::KIND_SEARCH_MANY => false,
            crate::proto::KIND_DATA => {
                let Some(&tag) = payload.first() else {
                    return true;
                };
                match self {
                    TenantDb::S1(_) => {
                        use sse_core::scheme1::REQ_TAGS as t1;
                        !matches!(
                            tag,
                            t1::GET_NONCES
                                | t1::SEARCH_FIND
                                | t1::SEARCH_REVEAL
                                | t1::SEARCH_REVEAL_MANY
                                | t1::EXPORT_INDEX
                        )
                    }
                    TenantDb::S2(_) => {
                        use sse_core::scheme2::protocol::req as t2;
                        !matches!(tag, t2::SEARCH | t2::SEARCH_MANY)
                    }
                }
            }
            _ => true,
        }
    }

    /// Serve one scheme request. Safe to call from many worker threads at
    /// once: the scheme servers lock per index shard internally, so
    /// requests touching distinct shards genuinely run in parallel.
    #[must_use]
    pub fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        match self {
            TenantDb::S1(s) => s.handle_shared(request),
            TenantDb::S2(s) => s.handle_shared(request),
        }
    }

    /// [`Self::handle_shared`] with a recycled response buffer: the
    /// scheme's hot search branch encodes into `scratch` (capacity
    /// reused, contents discarded), so a pool-acquired buffer makes the
    /// steady-state search response allocation-free.
    #[must_use]
    pub fn handle_shared_with(&self, request: &[u8], scratch: Vec<u8>) -> Vec<u8> {
        match self {
            TenantDb::S1(s) => s.handle_shared_with(request, scratch),
            TenantDb::S2(s) => s.handle_shared_with(request, scratch),
        }
    }

    /// Apply an `UPDATE_MANY` batch of mutation parts all-or-nothing (one
    /// journal append per affected shard; racing searches see either none
    /// or all of the batch). Returns a single scheme response valid for
    /// every part.
    #[must_use]
    pub fn apply_batch(&self, parts: &[&[u8]]) -> Vec<u8> {
        match self {
            TenantDb::S1(s) => s.apply_batch(parts),
            TenantDb::S2(s) => s.apply_batch(parts),
        }
    }

    /// Serve a `SEARCH_MANY` batch: fan the parts out across a small
    /// scoped worker pool (at most `SEARCH_FANOUT` participants, the
    /// caller included), each part an independent scheme request resolved
    /// against the shard snapshots. Work is claimed by atomic counter so
    /// uneven per-keyword costs balance, and the response batch is
    /// position-aligned with the request parts.
    ///
    /// This is the legacy spawn-per-batch path, kept for callers outside
    /// the daemon worker pool (thread-per-connection mode has no pool to
    /// draw helpers from). The daemon routes `SEARCH_MANY` through the
    /// spawn-free `sched::SearchFanout` executor instead.
    #[must_use]
    pub fn search_batch(&self, parts: &[&[u8]]) -> Vec<u8> {
        let mut responses: Vec<Vec<u8>> = vec![Vec::new(); parts.len()];
        // Snapshot searches are pure CPU (no blocking I/O), so threads
        // beyond the machine's cores only add spawn and switch overhead —
        // on a single-core host the whole batch stays on this thread and
        // the win is purely the amortized round trip.
        let fanout = fanout_limit(parts.len(), machine_parallelism());
        if fanout <= 1 {
            for (slot, part) in responses.iter_mut().zip(parts) {
                *slot = self.handle_part_caught(part);
            }
            return crate::proto::encode_batch(&responses);
        }
        let next = AtomicUsize::new(0);
        let claim = |next: &AtomicUsize| {
            let mut mine: Vec<(usize, Vec<u8>)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(part) = parts.get(i) else { break };
                mine.push((i, self.handle_part_caught(part)));
            }
            mine
        };
        std::thread::scope(|s| {
            // The calling thread is participant one of `fanout`, so a
            // batch costs exactly `fanout - 1` spawns — counted so the
            // sched bench can prove the daemon path spawns none.
            let handles: Vec<_> = (1..fanout)
                .map(|_| {
                    allocmeter::note_thread_spawn();
                    let next = &next;
                    s.spawn(move || claim(next))
                })
                .collect();
            for (i, resp) in claim(&next) {
                responses[i] = resp;
            }
            for handle in handles {
                // A panic that escaped the per-part catch (e.g. in the
                // claim loop's own bookkeeping) must not take down the
                // connection: its claimed slots are healed below.
                if let Ok(list) = handle.join() {
                    for (i, resp) in list {
                        responses[i] = resp;
                    }
                }
            }
        });
        // Every legitimate scheme response starts with a tag byte, so an
        // empty slot can only mean its worker died before reporting.
        for slot in &mut responses {
            if slot.is_empty() {
                *slot =
                    proto_common::encode_error("internal error: search fan-out worker panicked");
            }
        }
        crate::proto::encode_batch(&responses)
    }

    /// Serve one fan-out part, converting a scheme-server panic into that
    /// part's protocol error instead of unwinding through the pool — one
    /// poisoned part must not kill the other parts or the connection.
    /// Shared with the persistent executor in [`crate::sched`], whose
    /// owner-waits rely on every claimed part reporting a result.
    pub(crate) fn handle_part_caught(&self, part: &[u8]) -> Vec<u8> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle_shared(part)))
            .unwrap_or_else(|_| {
                proto_common::encode_error("internal error: search fan-out worker panicked")
            })
    }

    /// Search-memo counters (hits, misses, chain steps saved). Scheme 1
    /// has no server-side search cache, so its counters are always zero.
    #[must_use]
    pub fn search_cache_counters(&self) -> SearchCacheCounters {
        match self {
            TenantDb::S1(_) => SearchCacheCounters::default(),
            TenantDb::S2(s) => {
                let stats = s.stats();
                SearchCacheCounters {
                    hits: stats.cache_hits,
                    misses: stats.cache_misses,
                    walk_steps_saved: stats.walk_steps_saved,
                }
            }
        }
    }

    /// Per-shard contended lock acquisitions.
    #[must_use]
    pub fn shard_contention(&self) -> Vec<u64> {
        self.index().shard_contention()
    }

    /// Group-commit pipeline counters for this database.
    #[must_use]
    pub fn commit_counters(&self) -> CommitCounters {
        self.index().commit_counters()
    }

    /// The storage backend persisting this database.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.index().backend()
    }

    /// Per-backend storage counters (runs, compactions, bloom hit rates;
    /// all zero under the btree backend).
    #[must_use]
    pub fn backend_counters(&self) -> BackendCounters {
        self.index().backend_counters()
    }
}

impl Service for TenantDb {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self.handle_shared(request)
    }

    fn on_shutdown(&mut self) {
        // Best effort, as the scheme servers' own shutdown hooks: recovery
        // replays the logs anyway.
        let _ = self.checkpoint_home();
    }
}

/// Shared handle to one tenant's scheme server. No outer mutex: the scheme
/// servers synchronize internally per index shard, which is what lets the
/// daemon's workers execute requests for one tenant concurrently.
pub type TenantHandle = Arc<TenantDb>;

/// Server-side parameters for newly created tenant databases.
#[derive(Clone, Copy, Debug)]
pub struct TenantParams {
    /// Scheme 1 bit-array capacity in documents (fixed at setup by the
    /// paper's design; clients must encode against the same capacity).
    pub scheme1_capacity: u64,
    /// Scheme 2 hash-chain length `l`.
    pub scheme2_chain_length: u64,
    /// Index shards per tenant database (fixed at directory creation for
    /// durable tenants; see the shard manifest).
    pub shards: usize,
    /// Whether durable tenants batch concurrent journal records into
    /// shared-fsync commit groups (`false` ⇒ one fsync per mutation, the
    /// benchmark's baseline arm). Durability semantics are identical.
    pub group_commit: bool,
    /// Storage backend for durable tenants (fixed per tenant directory at
    /// creation, recorded in `backend.meta`; reopening an existing
    /// directory under a different backend is a clean error). Ignored in
    /// in-memory mode.
    pub backend: BackendKind,
}

impl Default for TenantParams {
    fn default() -> Self {
        TenantParams {
            scheme1_capacity: 4096,
            scheme2_chain_length: 4096,
            shards: 1,
            group_commit: true,
            backend: BackendKind::Btree,
        }
    }
}

/// Lazily populated map from `(tenant, scheme)` to server state.
pub struct TenantRegistry {
    params: TenantParams,
    /// `Some` ⇒ durable mode: tenants live on disk under this directory.
    data_dir: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
    tenants: Mutex<HashMap<(String, SchemeId), TenantHandle>>,
    /// Tenant opens that had to replay WAL records or truncate torn tails.
    wal_recoveries: AtomicU64,
    /// Total bytes of torn log tails truncated across all tenant opens.
    torn_tails_truncated: AtomicU64,
}

impl TenantRegistry {
    /// Empty in-memory registry creating tenants with `params`.
    #[must_use]
    pub fn new(params: TenantParams) -> Self {
        TenantRegistry {
            params,
            data_dir: None,
            vfs: RealVfs::arc(),
            tenants: Mutex::new(HashMap::new()),
            wal_recoveries: AtomicU64::new(0),
            torn_tails_truncated: AtomicU64::new(0),
        }
    }

    /// Durable registry: tenants are opened from / persisted to
    /// `data_dir`, with all file I/O routed through `vfs` (pass a
    /// `FaultVfs` to torture-test the serving stack).
    #[must_use]
    pub fn durable(params: TenantParams, data_dir: PathBuf, vfs: Arc<dyn Vfs>) -> Self {
        TenantRegistry {
            params,
            data_dir: Some(data_dir),
            vfs,
            tenants: Mutex::new(HashMap::new()),
            wal_recoveries: AtomicU64::new(0),
            torn_tails_truncated: AtomicU64::new(0),
        }
    }

    /// Whether tenants persist to disk.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.data_dir.is_some()
    }

    /// Fetch a tenant's server, creating it (in-memory mode) or opening it
    /// from disk (durable mode, replaying any crash-left WAL) on first
    /// reference.
    ///
    /// # Errors
    /// Durable mode only: storage errors from the open/recovery path.
    pub fn get_or_create(&self, tenant: &str, scheme: SchemeId) -> Result<TenantHandle, SseError> {
        let mut map = self.tenants.lock();
        if let Some(handle) = map.get(&(tenant.to_string(), scheme)) {
            return Ok(handle.clone());
        }
        let db = self.open_tenant(tenant, scheme)?;
        self.note_recovery(&db.recovery());
        let handle = Arc::new(db);
        map.insert((tenant.to_string(), scheme), handle.clone());
        Ok(handle)
    }

    fn open_tenant(&self, tenant: &str, scheme: SchemeId) -> Result<TenantDb, SseError> {
        let dir = match &self.data_dir {
            Some(root) => {
                let dir = tenant_dir(root, tenant, scheme);
                self.vfs.create_dir_all(&dir)?;
                Some(dir)
            }
            None => None,
        };
        let opts = IndexOptions {
            vfs: Arc::clone(&self.vfs),
            dir,
            shards: self.params.shards.max(1),
            backend: self.params.backend,
            group_commit: self.params.group_commit,
        };
        Ok(match scheme {
            SchemeId::Scheme1 => {
                TenantDb::S1(Scheme1Server::open(self.params.scheme1_capacity, opts)?)
            }
            SchemeId::Scheme2 => TenantDb::S2(Scheme2Server::open(
                Scheme2Config::standard().with_chain_length(self.params.scheme2_chain_length),
                opts,
            )?),
        })
    }

    fn note_recovery(&self, recovery: &ServerRecovery) {
        if recovery.recovered_anything() {
            self.wal_recoveries.fetch_add(1, Ordering::Relaxed);
        }
        self.torn_tails_truncated
            .fetch_add(recovery.torn_bytes(), Ordering::Relaxed);
    }

    /// Durable mode: eagerly re-open every tenant database already present
    /// under the data directory, so recovery (and its cost) happens at
    /// daemon startup rather than on a client's first request. Returns how
    /// many databases were opened.
    ///
    /// # Errors
    /// Directory-scan I/O errors or storage errors from any open.
    pub fn preopen_existing(&self) -> Result<usize, SseError> {
        let Some(root) = self.data_dir.clone() else {
            return Ok(0);
        };
        let mut opened = 0;
        let entries = match std::fs::read_dir(&root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry.map_err(SseError::from)?;
            if !entry.file_type().map_err(SseError::from)?.is_dir() {
                continue;
            }
            let Some(tenant) = entry.file_name().to_str().and_then(decode_tenant_dir_name) else {
                continue; // not a name we wrote; skip
            };
            for scheme in [SchemeId::Scheme1, SchemeId::Scheme2] {
                if tenant_dir(&root, &tenant, scheme).is_dir() {
                    self.get_or_create(&tenant, scheme)?;
                    opened += 1;
                }
            }
        }
        Ok(opened)
    }

    /// Checkpoint every open tenant database to its home directory, so a
    /// graceful shutdown leaves no WAL to replay. In-memory tenants are
    /// no-ops. Returns how many databases checkpointed.
    ///
    /// # Errors
    /// The first storage error encountered (remaining tenants are still
    /// attempted — a failure on one tenant must not strand the others'
    /// unflushed WALs).
    pub fn checkpoint_all(&self) -> Result<usize, SseError> {
        let handles: Vec<TenantHandle> = self.tenants.lock().values().cloned().collect();
        let mut checkpointed = 0;
        let mut first_err = None;
        for handle in handles {
            match handle.checkpoint_home() {
                Ok(()) => checkpointed += 1,
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(checkpointed),
            Some(e) => Err(e),
        }
    }

    /// Whether a tenant database is already open.
    #[must_use]
    pub fn contains(&self, tenant: &str, scheme: SchemeId) -> bool {
        self.tenants
            .lock()
            .contains_key(&(tenant.to_string(), scheme))
    }

    /// Number of live tenant databases.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.lock().len()
    }

    /// Tenant opens that performed WAL replay or torn-tail truncation.
    #[must_use]
    pub fn wal_recoveries(&self) -> u64 {
        self.wal_recoveries.load(Ordering::Relaxed)
    }

    /// Total torn log-tail bytes truncated across tenant opens.
    #[must_use]
    pub fn torn_tails_truncated(&self) -> u64 {
        self.torn_tails_truncated.load(Ordering::Relaxed)
    }

    /// Group-commit pipeline counters merged over every open tenant
    /// database (the STATS commit block).
    #[must_use]
    pub fn commit_counters(&self) -> CommitCounters {
        let handles: Vec<TenantHandle> = self.tenants.lock().values().cloned().collect();
        let mut out = CommitCounters::default();
        for handle in handles {
            out.merge(&handle.commit_counters());
        }
        out
    }

    /// Search-memo counters summed over every open tenant database (the
    /// STATS search-cache block).
    #[must_use]
    pub fn search_cache_counters(&self) -> SearchCacheCounters {
        let handles: Vec<TenantHandle> = self.tenants.lock().values().cloned().collect();
        let mut out = SearchCacheCounters::default();
        for handle in handles {
            out.merge(&handle.search_cache_counters());
        }
        out
    }

    /// Per-backend storage counters merged over every open tenant
    /// database (the STATS backend block).
    #[must_use]
    pub fn backend_counters(&self) -> BackendCounters {
        let handles: Vec<TenantHandle> = self.tenants.lock().values().cloned().collect();
        let mut out = BackendCounters::default();
        for handle in handles {
            out.merge(&handle.backend_counters());
        }
        out
    }

    /// Every open tenant database with its routing key — the scrub
    /// thread's work list. Handles are clones; the registry lock is not
    /// held while the caller verifies or repairs.
    #[must_use]
    pub fn open_tenants(&self) -> Vec<((String, SchemeId), TenantHandle)> {
        self.tenants
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// On-disk directory of an open durable tenant (`None` in-memory).
    #[must_use]
    pub fn tenant_dir(&self, tenant: &str, scheme: SchemeId) -> Option<PathBuf> {
        self.data_dir
            .as_ref()
            .map(|root| tenant_dir(root, tenant, scheme))
    }

    /// The VFS all tenant file I/O routes through.
    #[must_use]
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// Health transition counts and current-state tallies over every open
    /// tenant database (the STATS health block).
    #[must_use]
    pub fn health_counters(&self) -> HealthCounters {
        let handles: Vec<TenantHandle> = self.tenants.lock().values().cloned().collect();
        let mut out = HealthCounters::default();
        for handle in handles {
            let health = handle.health();
            let (d, r, q) = health.transition_counts();
            out.degradations += d;
            out.recoveries += r;
            out.quarantines += q;
            match health.state() {
                HealthState::Healthy => {}
                HealthState::Degraded => out.tenants_degraded += 1,
                HealthState::Quarantined => out.tenants_quarantined += 1,
            }
        }
        out
    }

    /// Per-shard contended lock acquisitions summed element-wise over
    /// every open tenant database (the STATS contention vector).
    #[must_use]
    pub fn shard_contention(&self) -> Vec<u64> {
        let handles: Vec<TenantHandle> = self.tenants.lock().values().cloned().collect();
        let mut out: Vec<u64> = Vec::new();
        for handle in handles {
            let per_tenant = handle.shard_contention();
            if per_tenant.len() > out.len() {
                out.resize(per_tenant.len(), 0);
            }
            for (acc, c) in out.iter_mut().zip(per_tenant) {
                *acc += c;
            }
        }
        out
    }
}

/// On-disk directory for one `(tenant, scheme)` database.
fn tenant_dir(root: &Path, tenant: &str, scheme: SchemeId) -> PathBuf {
    let sub = match scheme {
        SchemeId::Scheme1 => "s1",
        SchemeId::Scheme2 => "s2",
    };
    root.join(encode_tenant_dir_name(tenant)).join(sub)
}

/// Reversible filesystem-safe encoding of a tenant name: `[A-Za-z0-9_-]`
/// pass through, everything else (including `%` itself) becomes `%XX`.
#[must_use]
pub fn encode_tenant_dir_name(tenant: &str) -> String {
    let mut out = String::with_capacity(tenant.len());
    for b in tenant.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Inverse of [`encode_tenant_dir_name`]; `None` for names this daemon
/// could not have written (stray directories are skipped, not trusted).
#[must_use]
pub fn decode_tenant_dir_name(name: &str) -> Option<String> {
    let mut bytes = Vec::with_capacity(name.len());
    let mut chars = name.bytes();
    while let Some(b) = chars.next() {
        match b {
            b'%' => {
                let hi = chars.next()?;
                let lo = chars.next()?;
                let hex = [hi, lo];
                let hex = std::str::from_utf8(&hex).ok()?;
                bytes.push(u8::from_str_radix(hex, 16).ok()?);
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => bytes.push(b),
            _ => return None,
        }
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_limit_counts_the_caller_exactly_once() {
        // `fanout_limit` returns total participants, caller included:
        // helpers are always `limit - 1`, never `limit` (which would
        // double-count the caller's slot against the core budget).
        assert_eq!(fanout_limit(4, 16), 4, "one participant per part");
        assert_eq!(fanout_limit(16, 4), 4, "core-capped: caller + 3 helpers");
        assert_eq!(fanout_limit(100, 64), SEARCH_FANOUT, "hard batch cap");
        assert_eq!(fanout_limit(8, 1), 1, "single core: caller alone, 0 spawns");
        assert_eq!(fanout_limit(1, 8), 1, "single part stays inline");
        assert_eq!(fanout_limit(3, 0), 1, "a zero core count cannot size to 0");
    }

    #[test]
    fn same_key_shares_state_different_key_does_not() {
        let reg = TenantRegistry::new(TenantParams::default());
        let a1 = reg.get_or_create("alice", SchemeId::Scheme2).unwrap();
        let a2 = reg.get_or_create("alice", SchemeId::Scheme2).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        let b = reg.get_or_create("bob", SchemeId::Scheme2).unwrap();
        assert!(!Arc::ptr_eq(&a1, &b));
        let a_s1 = reg.get_or_create("alice", SchemeId::Scheme1).unwrap();
        assert!(!Arc::ptr_eq(&a1, &a_s1));
        assert_eq!(reg.tenant_count(), 3);
    }

    #[test]
    fn tenant_dir_names_round_trip() {
        for name in ["alice", "weird name/with:stuff", "100%-sure", "著者", ""] {
            let encoded = encode_tenant_dir_name(name);
            assert!(
                encoded
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'%'),
                "unsafe byte in {encoded:?}"
            );
            assert_eq!(decode_tenant_dir_name(&encoded).as_deref(), Some(name));
        }
        // Names we did not write are rejected, not guessed at.
        assert_eq!(decode_tenant_dir_name("has space"), None);
        assert_eq!(decode_tenant_dir_name("trailing%4"), None);
        assert_eq!(decode_tenant_dir_name("bad%zz"), None);
    }

    #[test]
    fn durable_registry_recovers_tenants_across_reopen() {
        let dir = tempdir();
        let reg = TenantRegistry::durable(
            TenantParams::default(),
            dir.clone(),
            sse_storage::RealVfs::arc(),
        );
        assert_eq!(reg.preopen_existing().unwrap(), 0);
        reg.get_or_create("alice", SchemeId::Scheme2).unwrap();
        reg.get_or_create("bob", SchemeId::Scheme1).unwrap();
        assert_eq!(reg.checkpoint_all().unwrap(), 2);
        drop(reg);

        let reg2 = TenantRegistry::durable(
            TenantParams::default(),
            dir.clone(),
            sse_storage::RealVfs::arc(),
        );
        assert_eq!(reg2.preopen_existing().unwrap(), 2);
        assert_eq!(reg2.tenant_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sse-tenant-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
