//! Serving benchmarks: sharding and group-commit A/B comparisons.
//!
//! Both benchmarks spawn two durable daemons on ephemeral ports, load an
//! identical seeded corpus into each, and drive the same mixed workload
//! against both — some clients search in a closed loop, the rest issue
//! durable index writes (Scheme 2 fake updates through the `UPDATE_MANY`
//! envelope).
//!
//! * [`run_bench`] compares 1 shard vs `shards` shards per tenant
//!   (`BENCH_serving.json`). Since searches moved to immutable snapshots
//!   they never queue behind a journal fsync on any shard count, so this
//!   arm now measures write-path parallelism rather than a search-path
//!   collapse (the pre-group-commit servers showed 2x+ search speedups
//!   here purely from fsync queueing).
//! * [`run_group_commit_bench`] fixes the shard count and toggles
//!   `TenantParams::group_commit` (`BENCH_groupcommit.json`): the grouped
//!   arm amortizes one fsync over every mutation staged while the leader
//!   flushed, which is where the fsyncs-per-op and update-throughput
//!   deltas come from.
//! * [`run_search_bench`] measures the search hot path on one in-memory
//!   daemon (`BENCH_search.json`): cold first searches vs memo-served
//!   repeats, and `SEARCH_MANY` batches vs the same searches one round
//!   trip at a time.
//! * [`run_update_bench`] fixes shards and group commit and toggles the
//!   storage backend (`BENCH_backend.json`): an update-heavy workload
//!   with periodic mid-run checkpoints, where the btree arm rewrites
//!   every shard snapshot per checkpoint and the lsm arm flushes only
//!   the tags dirtied since the last one.
//! * [`run_idle_bench`] measures the epoll reactor's idle-connection
//!   scaling (`BENCH_reactor.json`): one in-memory `sse-serverd` child
//!   process holds thousands of idle tenant connections while a hot
//!   search client measures latency before and under that load. Running
//!   the daemon in its own process keeps the herd's client sockets out
//!   of its fd budget and its RSS — `/proc/<pid>/status` then reports
//!   exactly what the server pays per idle connection, sampled at the
//!   halfway mark and at full strength so growth (which must stay flat)
//!   is visible. The final graceful drain — with every idle connection
//!   still open — is timed and must exit clean.
//! * [`run_hotpath_bench`] measures the zero-copy serving pipeline
//!   (`BENCH_hotpath.json`): a captured warm search replayed over a raw
//!   socket against three in-process daemons — the owned-buffer fallback
//!   (`pool: false`), the pooled default, and the pooled daemon under a
//!   pipelined burst of requests per round. The allocation meter counts
//!   server-thread heap traffic per op (the binary installs the counting
//!   allocator; the daemon's reactor and worker threads opt in), and the
//!   `ADMIN_STATS` deltas report bytes memcpy'd, pool hit rates, and the
//!   mean `writev` syscall batch.
//! * [`run_sched_bench`] measures the affinity-sharded worker runtime
//!   (`BENCH_sched.json`): multi-tenant pipelined bursts mixing plain
//!   searches with `SEARCH_MANY` batches, under uniform and skewed
//!   tenant weights, against affinity routing and its round-robin
//!   (global-queue) baseline. The `ADMIN_STATS` deltas expose the
//!   scheduler counters (local hits, steals, spills, fan-out parts
//!   helped) plus the queue-wait/service-time latency decomposition,
//!   and the `allocmeter` spawn counter proves the measured window
//!   served every request — fan-out parts included — without spawning
//!   a single thread.
//!
//! The updaters run Optimization 2 (`CtrPolicy::OnSearchOnly`) and never
//! search, so their chain counter never advances past 1 and the workload
//! cannot exhaust the chain regardless of duration.

use crate::daemon::{Daemon, ServerConfig};
use crate::histogram::LatencyHistogram;
use crate::proto::{self, Hello, SchemeId, HELLO_SEQ, KIND_DATA, KIND_SEARCH_MANY, STATUS_OK};
use crate::tenant::TenantParams;
use crate::transport::TcpTransport;
use sse_core::scheme2::{CtrPolicy, Scheme2Client, Scheme2Config};
use sse_core::types::{Document, Keyword, MasterKey};
use sse_net::frame::encode_frame;
use sse_net::link::Transport;
use sse_storage::BackendKind;
use std::io::{Error, Read, Result, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Benchmark parameters.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Concurrent clients per arm (half search, half update).
    pub clients: usize,
    /// Shard count of the sharded arm (the baseline arm always runs 1).
    pub shards: usize,
    /// Workload seed (corpus content and search order derive from it).
    pub seed: u64,
    /// Distinct keywords per searcher corpus.
    pub keywords: usize,
    /// Documents per searcher corpus.
    pub docs: usize,
    /// Measured window per arm.
    pub duration: Duration,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            clients: 8,
            shards: 8,
            seed: 7,
            keywords: 32,
            docs: 32,
            duration: Duration::from_millis(1500),
        }
    }
}

/// One arm's measurements.
#[derive(Clone, Debug)]
pub struct BenchArm {
    /// Shards per tenant database in this arm.
    pub shards: usize,
    /// Whether shard journals group-committed concurrent mutations.
    pub group_commit: bool,
    /// Searches completed inside the measured window.
    pub search_ops: u64,
    /// Search throughput (searcher clients only).
    pub search_ops_per_sec: f64,
    /// Index writes completed inside the measured window.
    pub update_ops: u64,
    /// Index write throughput (updater clients only).
    pub update_ops_per_sec: f64,
    /// Client-observed search latency quantiles (ns).
    pub p50_ns: u64,
    /// 95th percentile (ns).
    pub p95_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Per-shard lock-contention counters from `ADMIN_STATS` (a slot is
    /// bumped each time a request found its shard lock held).
    pub shard_contention: Vec<u64>,
    /// `BUSY` responses absorbed by transport backoff.
    pub busy_retries: u64,
    /// Journal flush groups committed (one fsync each).
    pub groups_committed: u64,
    /// Mutations made durable across those groups.
    pub ops_committed: u64,
    /// `ops_committed / groups_committed` (0 when idle).
    pub mean_group_size: f64,
    /// Largest single flush group.
    pub max_group_size: u64,
    /// `groups_committed / ops_committed` — the headline amortization
    /// ratio (1.0 means every mutation paid its own fsync).
    pub fsyncs_per_op: f64,
    /// Fsyncs avoided versus one-per-mutation.
    pub fsyncs_saved: u64,
    /// Immutable shard snapshots published for the lock-free search path.
    pub snapshot_swaps: u64,
    /// Storage backend serving this arm.
    pub backend: BackendKind,
    /// Mid-run checkpoints issued by the checkpointer client (0 when the
    /// arm runs without one; graceful-shutdown checkpoints not counted).
    pub checkpoints: u64,
    /// LSM sorted runs written (flushes + compaction outputs); 0 on btree.
    pub runs_flushed: u64,
    /// LSM runs live at snapshot time; 0 on btree.
    pub runs_live: u64,
    /// LSM full-merge compactions; 0 on btree.
    pub compactions: u64,
    /// Bloom filters consulted on reads; 0 on btree.
    pub bloom_checks: u64,
    /// Run reads skipped because a bloom filter ruled the key out.
    pub bloom_skips: u64,
}

/// Full benchmark report (both arms plus the headline ratio).
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Parameters the run used.
    pub options: BenchOptions,
    /// Single-shard baseline.
    pub baseline: BenchArm,
    /// Sharded arm.
    pub sharded: BenchArm,
    /// `sharded.search_ops_per_sec / baseline.search_ops_per_sec`.
    pub speedup_search_ops_per_sec: f64,
}

/// Serialize one arm as a JSON object. Hand-rolled (the workspace carries
/// no JSON dependency); all fields are numeric so no string escaping is
/// needed.
fn arm_json(a: &BenchArm) -> String {
    let contention: Vec<String> = a.shard_contention.iter().map(u64::to_string).collect();
    format!(
        "{{\"shards\":{},\"group_commit\":{},\"backend\":\"{}\",\"search_ops\":{},\
         \"search_ops_per_sec\":{:.2},\"update_ops\":{},\
         \"update_ops_per_sec\":{:.2},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\
         \"shard_contention\":[{}],\"busy_retries\":{},\
         \"groups_committed\":{},\"ops_committed\":{},\
         \"mean_group_size\":{:.3},\"max_group_size\":{},\
         \"fsyncs_per_op\":{:.4},\"fsyncs_saved\":{},\"snapshot_swaps\":{},\
         \"checkpoints\":{},\"runs_flushed\":{},\"runs_live\":{},\
         \"compactions\":{},\"bloom_checks\":{},\"bloom_skips\":{}}}",
        a.shards,
        a.group_commit,
        a.backend,
        a.search_ops,
        a.search_ops_per_sec,
        a.update_ops,
        a.update_ops_per_sec,
        a.p50_ns,
        a.p95_ns,
        a.p99_ns,
        contention.join(","),
        a.busy_retries,
        a.groups_committed,
        a.ops_committed,
        a.mean_group_size,
        a.max_group_size,
        a.fsyncs_per_op,
        a.fsyncs_saved,
        a.snapshot_swaps,
        a.checkpoints,
        a.runs_flushed,
        a.runs_live,
        a.compactions,
        a.bloom_checks,
        a.bloom_skips,
    )
}

impl BenchReport {
    /// Serialize as the `BENCH_serving.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n\"benchmark\":\"sse-serving-sharded\",\n\"seed\":{},\n\"clients\":{},\n\
             \"keywords\":{},\n\"docs\":{},\n\"duration_ms\":{},\n\
             \"arms\":[\n{},\n{}\n],\n\"speedup_search_ops_per_sec\":{:.3}\n}}\n",
            self.options.seed,
            self.options.clients,
            self.options.keywords,
            self.options.docs,
            self.options.duration.as_millis(),
            arm_json(&self.baseline),
            arm_json(&self.sharded),
            self.speedup_search_ops_per_sec,
        )
    }
}

/// Group-commit A/B report: both arms run the same shard count and mixed
/// workload; only `TenantParams::group_commit` differs.
#[derive(Clone, Debug)]
pub struct GroupCommitReport {
    /// Parameters the run used (`options.shards` is the fixed shard count
    /// both arms share).
    pub options: BenchOptions,
    /// Baseline arm: one journal fsync per mutation.
    pub ungrouped: BenchArm,
    /// Group-commit arm: concurrent mutations share a flush group.
    pub grouped: BenchArm,
    /// `grouped.update_ops_per_sec / ungrouped.update_ops_per_sec`.
    pub speedup_update_ops_per_sec: f64,
    /// `grouped.p99_ns / ungrouped.p99_ns` for searches — below 1.0 when
    /// grouping keeps searches from queueing behind fsyncing workers.
    pub search_p99_ratio: f64,
}

impl GroupCommitReport {
    /// Serialize as the `BENCH_groupcommit.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n\"benchmark\":\"sse-group-commit\",\n\"seed\":{},\n\"clients\":{},\n\
             \"shards\":{},\n\"keywords\":{},\n\"docs\":{},\n\"duration_ms\":{},\n\
             \"arms\":[\n{},\n{}\n],\n\"speedup_update_ops_per_sec\":{:.3},\n\
             \"search_p99_ratio\":{:.3}\n}}\n",
            self.options.seed,
            self.options.clients,
            self.options.shards,
            self.options.keywords,
            self.options.docs,
            self.options.duration.as_millis(),
            arm_json(&self.ungrouped),
            arm_json(&self.grouped),
            self.speedup_update_ops_per_sec,
            self.search_p99_ratio,
        )
    }
}

/// Tiny deterministic generator for corpus/search-order decisions (the
/// workspace's `rand` shim lives elsewhere; splitmix64 is plenty here).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn keyword(i: usize) -> Keyword {
    Keyword::new(format!("bench-kw-{i}"))
}

/// Build one searcher's corpus: `docs` documents spread over `keywords`
/// distinct keywords, ids strided per client so clients sharing the tenant
/// document store never collide.
fn corpus(opts: &BenchOptions, client: usize) -> Vec<Document> {
    let mut rng = SplitMix(opts.seed ^ ((client as u64) << 17) ^ 0xBE7C);
    (0..opts.docs)
        .map(|d| {
            let kw = keyword((rng.next() as usize) % opts.keywords.max(1));
            let id = (d * opts.clients.max(1) + client) as u64;
            Document::new(
                id,
                format!("record-{client}-{d}").into_bytes(),
                [kw.as_str()],
            )
        })
        .collect()
}

fn connect_scheme2(
    addr: &str,
    seed: u64,
    client: usize,
    config: Scheme2Config,
) -> Result<Scheme2Client<TcpTransport>> {
    let transport = TcpTransport::connect(addr, "bench-tenant", SchemeId::Scheme2)?;
    let key = MasterKey::from_seed(seed ^ ((client as u64) << 32) ^ 0xBEBC);
    Ok(Scheme2Client::new_seeded(
        transport,
        key,
        config,
        seed.wrapping_add(client as u64),
    ))
}

/// Everything that distinguishes one benchmark arm from another: the
/// tenant geometry, the backend, and the optional checkpoint/preload
/// pressure. The workload itself (clients, duration, corpus) comes from
/// the shared [`BenchOptions`].
struct ArmSpec {
    shards: usize,
    group_commit: bool,
    backend: BackendKind,
    searchers: usize,
    /// With this set, a dedicated client issues a wire `CHECKPOINT` on
    /// the period throughout the window, so the arm also measures how
    /// checkpoint cost (full snapshot rewrite on btree, dirty-tag run
    /// flush on lsm) interferes with foreground throughput.
    checkpoint_every: Option<Duration>,
    /// Cold keywords indexed and checkpointed before the window opens —
    /// resident state the workload never touches, which a btree
    /// checkpoint must nonetheless rewrite.
    preload_keywords: usize,
}

/// Run one arm: spawn a durable daemon per `spec`, load the corpus, and
/// drive the mixed workload for the measured window.
fn run_arm(opts: &BenchOptions, spec: &ArmSpec, data_dir: &Path) -> Result<BenchArm> {
    let ArmSpec {
        shards,
        group_commit,
        backend,
        searchers,
        checkpoint_every,
        preload_keywords,
    } = *spec;
    let config = ServerConfig {
        workers: opts.clients.max(2),
        queue_depth: (opts.clients * 8).max(64),
        tenant_params: TenantParams {
            shards,
            group_commit,
            backend,
            ..TenantParams::default()
        },
        data_dir: Some(data_dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let daemon = Daemon::spawn(config).map_err(|e| Error::other(format!("spawn: {e}")))?;
    let addr = daemon.local_addr().to_string();

    if preload_keywords > 0 {
        // Build the cold resident index: tags the measured window never
        // touches again. The settling checkpoint folds them into each
        // backend's durable form, so the mid-run checkpoints price only
        // the window's churn — which on btree still means rewriting this
        // entire snapshot, while lsm flushes just the dirty tags.
        let mut c = connect_scheme2(
            &addr,
            opts.seed,
            8000,
            Scheme2Config::standard().with_chain_length(16),
        )?;
        let kws: Vec<Keyword> = (0..preload_keywords).map(keyword).collect();
        for chunk in kws.chunks(2048) {
            let groups: Vec<Vec<Keyword>> = chunk.chunks(64).map(<[Keyword]>::to_vec).collect();
            c.fake_update_many(&groups)
                .map_err(|e| Error::other(format!("preload: {e}")))?;
        }
        c.request_checkpoint()
            .map_err(|e| Error::other(format!("preload checkpoint: {e}")))?;
    }

    let searchers = searchers.clamp(1, opts.clients.saturating_sub(1).max(1));
    let updaters = opts.clients.saturating_sub(searchers).max(1);
    let checkpointers = usize::from(checkpoint_every.is_some());

    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(searchers + updaters + checkpointers + 1));
    let search_ops = Arc::new(AtomicU64::new(0));
    let update_ops = Arc::new(AtomicU64::new(0));
    let checkpoints = Arc::new(AtomicU64::new(0));
    let busy_retries = Arc::new(AtomicU64::new(0));
    let histogram = Arc::new(LatencyHistogram::new());

    let mut joins = Vec::new();
    for client in 0..searchers {
        let addr = addr.clone();
        let opts = opts.clone();
        let stop = stop.clone();
        let start = start.clone();
        let search_ops = search_ops.clone();
        let busy_retries = busy_retries.clone();
        let histogram = histogram.clone();
        joins.push(std::thread::spawn(move || -> Result<()> {
            // Setup before the barrier: each searcher loads its own corpus
            // (distinct master keys give disjoint tags, so clients share
            // the tenant without coordination) and keeps the client — its
            // chain counter state must carry into the searches.
            // Short chains keep the client-side hash work per operation
            // trivial; the benchmark measures serving, not chain building.
            let mut c = connect_scheme2(
                &addr,
                opts.seed,
                client,
                Scheme2Config::standard().with_chain_length(64),
            )?;
            c.store_batch(&corpus(&opts, client))
                .map_err(|e| Error::other(format!("setup store: {e}")))?;
            let mut rng = SplitMix(opts.seed ^ ((client as u64) << 9) ^ 0x5EA7);
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let kw = keyword((rng.next() as usize) % opts.keywords.max(1));
                let started = Instant::now();
                c.search(&kw).map_err(|e| Error::other(e.to_string()))?;
                histogram.record(started.elapsed());
                search_ops.fetch_add(1, Ordering::Relaxed);
            }
            busy_retries.fetch_add(c.transport_mut().busy_retries(), Ordering::Relaxed);
            Ok(())
        }));
    }
    for updater in 0..updaters {
        let addr = addr.clone();
        let opts = opts.clone();
        let stop = stop.clone();
        let start = start.clone();
        let update_ops = update_ops.clone();
        let busy_retries = busy_retries.clone();
        joins.push(std::thread::spawn(move || -> Result<()> {
            // Updater keys are offset past the searcher range so their tags
            // (and shard placement) are independent of the searchers'.
            // Updaters never search, so their chains never advance past
            // counter 1 (Opt. 2) and a short chain is all they need — each
            // operation is then dominated by the server-side journal fsync,
            // not by client hashing.
            let mut c = connect_scheme2(
                &addr,
                opts.seed,
                1000 + updater,
                Scheme2Config::standard().with_chain_length(16),
            )?;
            let mut rng = SplitMix(opts.seed ^ ((updater as u64) << 5) ^ 0x0bda);
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                // One single-keyword group per envelope: one shard locked,
                // one journal fsync — the minimal durable index write (the
                // multi-part paths are covered by the test suites). A small
                // keyword universe keeps every chain cached after the first
                // few operations.
                let pick = |rng: &mut SplitMix| keyword((rng.next() as usize) % 64);
                let groups = vec![vec![pick(&mut rng)]];
                c.fake_update_many(&groups)
                    .map_err(|e| Error::other(e.to_string()))?;
                update_ops.fetch_add(1, Ordering::Relaxed);
            }
            busy_retries.fetch_add(c.transport_mut().busy_retries(), Ordering::Relaxed);
            Ok(())
        }));
    }
    if let Some(period) = checkpoint_every {
        let addr = addr.clone();
        let seed = opts.seed;
        let stop = stop.clone();
        let start = start.clone();
        let checkpoints = checkpoints.clone();
        joins.push(std::thread::spawn(move || -> Result<()> {
            // One checkpointer per arm: sleeps in short slices so it
            // notices `stop` promptly, then asks the daemon to persist the
            // doc store and keyword index mid-run. On btree that rewrites
            // every shard snapshot; on lsm it flushes only dirty tags.
            let mut c = connect_scheme2(&addr, seed, 9000, Scheme2Config::standard())?;
            start.wait();
            let slice = Duration::from_millis(10);
            let mut due = Instant::now() + period;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                if Instant::now() >= due {
                    c.request_checkpoint()
                        .map_err(|e| Error::other(e.to_string()))?;
                    checkpoints.fetch_add(1, Ordering::Relaxed);
                    due = Instant::now() + period;
                }
            }
            Ok(())
        }));
    }

    start.wait();
    let measured = Instant::now();
    std::thread::sleep(opts.duration);
    stop.store(true, Ordering::Relaxed);
    let mut first_error = None;
    for join in joins {
        match join.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                first_error.get_or_insert(e);
            }
            Err(_) => {
                first_error.get_or_insert_with(|| Error::other("bench client panicked"));
            }
        }
    }
    let elapsed = measured.elapsed();
    if let Some(e) = first_error {
        daemon.shutdown();
        return Err(e);
    }

    let mut admin = TcpTransport::connect(&addr, "bench-tenant", SchemeId::Scheme2)?;
    let stats = admin.admin_stats()?;
    drop(admin);
    daemon.shutdown();

    let search_ops = search_ops.load(Ordering::Relaxed);
    let update_ops = update_ops.load(Ordering::Relaxed);
    #[allow(clippy::cast_precision_loss)]
    let search_ops_per_sec = search_ops as f64 / elapsed.as_secs_f64().max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let update_ops_per_sec = update_ops as f64 / elapsed.as_secs_f64().max(1e-9);
    let mean_group_size = stats.mean_group_size();
    let fsyncs_per_op = stats.fsyncs_per_op();
    Ok(BenchArm {
        shards,
        group_commit,
        search_ops,
        search_ops_per_sec,
        update_ops,
        update_ops_per_sec,
        p50_ns: histogram.quantile_ns(0.50),
        p95_ns: histogram.quantile_ns(0.95),
        p99_ns: histogram.quantile_ns(0.99),
        shard_contention: stats.shard_contention,
        busy_retries: busy_retries.load(Ordering::Relaxed),
        groups_committed: stats.groups_committed,
        ops_committed: stats.ops_committed,
        mean_group_size,
        max_group_size: stats.max_group_size,
        fsyncs_per_op,
        fsyncs_saved: stats.fsyncs_saved,
        snapshot_swaps: stats.snapshot_swaps,
        backend,
        checkpoints: checkpoints.load(Ordering::Relaxed),
        runs_flushed: stats.backend_runs_flushed,
        runs_live: stats.backend_runs_live,
        compactions: stats.backend_compactions,
        bloom_checks: stats.backend_bloom_checks,
        bloom_skips: stats.backend_bloom_skips,
    })
}

/// Fresh scratch directory for one arm (removed by [`run_bench`]).
fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("sse-bench-{tag}-{}-{seed}", std::process::id()))
}

/// Run both arms (1 shard, then `opts.shards`) on identical seeded
/// corpora and workloads.
///
/// # Errors
/// Daemon spawn, connection, or scheme errors from either arm.
pub fn run_bench(opts: &BenchOptions) -> Result<BenchReport> {
    assert!(
        opts.clients >= 2,
        "need at least one searcher and one updater"
    );
    let mut arms = Vec::with_capacity(2);
    for shards in [1, opts.shards.max(1)] {
        let dir = scratch_dir(&format!("s{shards}"), opts.seed);
        let _ = std::fs::remove_dir_all(&dir); // stale state from a crashed run
        std::fs::create_dir_all(&dir)?;
        let result = run_arm(
            opts,
            &ArmSpec {
                shards,
                group_commit: true,
                backend: BackendKind::Btree,
                searchers: (opts.clients / 2).max(1),
                checkpoint_every: None,
                preload_keywords: 0,
            },
            &dir,
        );
        let _ = std::fs::remove_dir_all(&dir);
        arms.push(result?);
    }
    let sharded = arms.pop().expect("two arms");
    let baseline = arms.pop().expect("two arms");
    let speedup = sharded.search_ops_per_sec / baseline.search_ops_per_sec.max(1e-9);
    Ok(BenchReport {
        options: opts.clone(),
        baseline,
        sharded,
        speedup_search_ops_per_sec: speedup,
    })
}

/// Run the group-commit A/B benchmark: both arms use `opts.shards` shards
/// and the same mixed workload; the first arm disables group commit (one
/// journal fsync per mutation), the second enables it. A low shard count
/// is the interesting regime — concurrent updaters must land on the same
/// shard journal for a flush group to form.
///
/// # Errors
/// Daemon spawn, connection, or scheme errors from either arm.
pub fn run_group_commit_bench(opts: &BenchOptions) -> Result<GroupCommitReport> {
    assert!(
        opts.clients >= 2,
        "need at least one searcher and one updater"
    );
    let shards = opts.shards.max(1);
    // Updater-heavy split: flush groups only form from concurrent
    // mutations, so most clients write; a couple of searchers remain to
    // measure the read path under the same mixed load.
    let searchers = (opts.clients / 4).max(1);
    let mut arms = Vec::with_capacity(2);
    for group_commit in [false, true] {
        let tag = if group_commit { "grouped" } else { "ungrouped" };
        let dir = scratch_dir(tag, opts.seed);
        let _ = std::fs::remove_dir_all(&dir); // stale state from a crashed run
        std::fs::create_dir_all(&dir)?;
        let result = run_arm(
            opts,
            &ArmSpec {
                shards,
                group_commit,
                backend: BackendKind::Btree,
                searchers,
                checkpoint_every: None,
                preload_keywords: 0,
            },
            &dir,
        );
        let _ = std::fs::remove_dir_all(&dir);
        arms.push(result?);
    }
    let grouped = arms.pop().expect("two arms");
    let ungrouped = arms.pop().expect("two arms");
    let speedup = grouped.update_ops_per_sec / ungrouped.update_ops_per_sec.max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let p99_ratio = grouped.p99_ns as f64 / (ungrouped.p99_ns as f64).max(1e-9);
    Ok(GroupCommitReport {
        options: opts.clone(),
        ungrouped,
        grouped,
        speedup_update_ops_per_sec: speedup,
        search_p99_ratio: p99_ratio,
    })
}

/// Cold keywords indexed and checkpointed before the update bench's
/// measured window: resident index state the workload never touches.
/// This is what makes the backend contrast visible — every mid-run btree
/// checkpoint rewrites all of it, every lsm checkpoint skips all of it.
pub const UPDATE_BENCH_PRELOAD_KEYWORDS: usize = 32768;

/// Backend A/B report: both arms run the same shard count, group commit,
/// and update-heavy workload with periodic mid-run checkpoints; only
/// `TenantParams::backend` differs.
#[derive(Clone, Debug)]
pub struct UpdateBenchReport {
    /// Parameters the run used (`options.shards` is the fixed shard count
    /// both arms share).
    pub options: BenchOptions,
    /// Cold resident keywords preloaded before the window (see
    /// [`UPDATE_BENCH_PRELOAD_KEYWORDS`]).
    pub preload_keywords: usize,
    /// Baseline arm on the B+-tree backend (full snapshot rewrite per
    /// checkpoint).
    pub btree: BenchArm,
    /// LSM arm (dirty-tag run flush per checkpoint).
    pub lsm: BenchArm,
    /// Mid-run checkpoint period both arms share.
    pub checkpoint_every: Duration,
    /// `lsm.update_ops_per_sec / btree.update_ops_per_sec` — the CI
    /// bench-smoke gate requires this at or above 1.0.
    pub lsm_vs_btree_update_ratio: f64,
}

impl UpdateBenchReport {
    /// Serialize as the `BENCH_backend.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n\"benchmark\":\"sse-backend-update\",\n\"seed\":{},\n\"clients\":{},\n\
             \"shards\":{},\n\"keywords\":{},\n\"docs\":{},\n\"duration_ms\":{},\n\
             \"checkpoint_every_ms\":{},\n\"preload_keywords\":{},\n\
             \"arms\":[\n{},\n{}\n],\n\"lsm_vs_btree_update_ratio\":{:.3}\n}}\n",
            self.options.seed,
            self.options.clients,
            self.options.shards,
            self.options.keywords,
            self.options.docs,
            self.options.duration.as_millis(),
            self.checkpoint_every.as_millis(),
            self.preload_keywords,
            arm_json(&self.btree),
            arm_json(&self.lsm),
            self.lsm_vs_btree_update_ratio,
        )
    }
}

/// Run the backend A/B benchmark: both arms use `opts.shards` shards,
/// group commit, and an update-heavy workload (GP-style: almost every
/// client issues durable fake updates, a single searcher keeps the read
/// path honest) while a checkpointer client persists the index mid-run.
/// The first arm serves from the `btree` backend, the second from `lsm`;
/// the headline ratio compares update throughput, which is where the
/// lsm backend's dirty-tag checkpoint flush earns its keep.
///
/// # Errors
/// Daemon spawn, connection, or scheme errors from either arm.
pub fn run_update_bench(opts: &BenchOptions) -> Result<UpdateBenchReport> {
    assert!(
        opts.clients >= 2,
        "need at least one searcher and one updater"
    );
    let shards = opts.shards.max(1);
    // Update-heavy split: one searcher in eight. The arm's checkpoint
    // period divides the window so both arms absorb several mid-run
    // checkpoints regardless of the configured duration.
    let searchers = (opts.clients / 8).max(1);
    let checkpoint_every = (opts.duration / 10).max(Duration::from_millis(40));
    let mut arms = Vec::with_capacity(2);
    for backend in [BackendKind::Btree, BackendKind::Lsm] {
        let dir = scratch_dir(backend.as_str(), opts.seed);
        let _ = std::fs::remove_dir_all(&dir); // stale state from a crashed run
        std::fs::create_dir_all(&dir)?;
        let result = run_arm(
            opts,
            &ArmSpec {
                shards,
                group_commit: true,
                backend,
                searchers,
                checkpoint_every: Some(checkpoint_every),
                preload_keywords: UPDATE_BENCH_PRELOAD_KEYWORDS,
            },
            &dir,
        );
        let _ = std::fs::remove_dir_all(&dir);
        arms.push(result?);
    }
    let lsm = arms.pop().expect("two arms");
    let btree = arms.pop().expect("two arms");
    let ratio = lsm.update_ops_per_sec / btree.update_ops_per_sec.max(1e-9);
    Ok(UpdateBenchReport {
        options: opts.clone(),
        preload_keywords: UPDATE_BENCH_PRELOAD_KEYWORDS,
        btree,
        lsm,
        checkpoint_every,
        lsm_vs_btree_update_ratio: ratio,
    })
}

/// Generations appended per keyword before the search arms run. Sets the
/// cold-search cost: the server's first walk unlocks this many generations
/// (one chain step + one commitment + one decrypt each), all of which the
/// memo skips on a repeat search.
const SEARCH_GENERATIONS: usize = 256;
/// Keywords per `SEARCH_MANY` batch (the acceptance criterion's batch-of-8).
const SEARCH_BATCH: usize = 8;
/// Full passes over the keyword set in the repeat arm.
const REPEAT_PASSES: usize = 8;
/// Measured single-group / batch pairs in the batch arm.
const BATCH_ROUNDS: usize = 48;

/// Latency profile of one search-path arm.
#[derive(Clone, Debug)]
pub struct SearchArm {
    /// Operations measured (searches, or groups/batches of
    /// `SEARCH_BATCH` for the paired arms).
    pub ops: u64,
    /// Exact mean latency (ns).
    pub mean_ns: u64,
    /// Exact median latency (ns) — the speedup ratios divide these: the
    /// histogram quantiles carry up to 2x bucketing error, and unlike the
    /// mean the median shrugs off the occasional 10x scheduler stall a
    /// loaded single-core host injects into a fixed-work run.
    pub median_ns: u64,
    /// Client-observed p50 (ns, log-bucketed).
    pub p50_ns: u64,
    /// Client-observed p95 (ns, log-bucketed).
    pub p95_ns: u64,
    /// Client-observed p99 (ns, log-bucketed).
    pub p99_ns: u64,
}

/// `BENCH_search.json`: cold vs repeat vs batched search on one daemon.
#[derive(Clone, Debug)]
pub struct SearchBenchReport {
    /// Parameters the run used (`seed`, `shards`, `keywords` apply; the
    /// search bench is fixed-work, so `clients`/`duration` do not).
    pub options: BenchOptions,
    /// Generations per keyword loaded before measuring.
    pub generations: usize,
    /// First search per keyword: full chain walk, memo misses.
    pub cold: SearchArm,
    /// Re-searches of the same keywords: memo hits.
    pub repeat: SearchArm,
    /// Wall clock of `SEARCH_BATCH` sequential single searches.
    pub single_group: SearchArm,
    /// Wall clock of one `SEARCH_MANY` batch of the same size.
    pub batch: SearchArm,
    /// `cold.median_ns / repeat.median_ns` — the memo's headline win.
    pub repeat_speedup: f64,
    /// `single_group.median_ns / batch.median_ns` — the envelope's
    /// headline win.
    pub batch_speedup: f64,
    /// Memo hits reported by `ADMIN_STATS` after the run.
    pub cache_hits: u64,
    /// Memo misses reported by `ADMIN_STATS` after the run.
    pub cache_misses: u64,
    /// Forward chain steps the memo avoided, per `ADMIN_STATS`.
    pub walk_steps_saved: u64,
}

fn search_arm_json(name: &str, a: &SearchArm) -> String {
    format!(
        "{{\"arm\":\"{name}\",\"ops\":{},\"mean_ns\":{},\"median_ns\":{},\
         \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
        a.ops, a.mean_ns, a.median_ns, a.p50_ns, a.p95_ns, a.p99_ns,
    )
}

impl SearchBenchReport {
    /// Serialize as the `BENCH_search.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n\"benchmark\":\"sse-search-path\",\n\"seed\":{},\n\"shards\":{},\n\
             \"keywords\":{},\n\"generations\":{},\n\"batch_size\":{},\n\
             \"arms\":[\n{},\n{},\n{},\n{}\n],\n\
             \"repeat_speedup\":{:.3},\n\"batch_speedup\":{:.3},\n\
             \"search_cache_hits\":{},\n\"search_cache_misses\":{},\n\
             \"walk_steps_saved\":{}\n}}\n",
            self.options.seed,
            self.options.shards,
            self.options.keywords,
            self.generations,
            SEARCH_BATCH,
            search_arm_json("cold", &self.cold),
            search_arm_json("repeat", &self.repeat),
            search_arm_json("single_group", &self.single_group),
            search_arm_json("batch", &self.batch),
            self.repeat_speedup,
            self.batch_speedup,
            self.cache_hits,
            self.cache_misses,
            self.walk_steps_saved,
        )
    }
}

/// Per-arm sample collector: log-bucketed quantiles for the latency
/// profile plus the exact samples for mean and median (the ratio gates
/// divide exact medians — the histogram's 2x bucket error would corrupt
/// them, and a mean lets one scheduler stall skew a fixed-work arm).
struct ArmRecorder {
    hist: LatencyHistogram,
    samples_ns: Vec<u64>,
}

impl ArmRecorder {
    fn new() -> Self {
        ArmRecorder {
            hist: LatencyHistogram::new(),
            samples_ns: Vec::new(),
        }
    }

    fn record(&mut self, sample: Duration) {
        self.hist.record(sample);
        self.samples_ns
            .push(u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX));
    }

    fn finish(&self) -> SearchArm {
        let ops = self.samples_ns.len() as u64;
        let sum: u128 = self.samples_ns.iter().map(|&n| u128::from(n)).sum();
        let mean_ns = u64::try_from(sum / u128::from(ops.max(1))).unwrap_or(u64::MAX);
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let median_ns = sorted.get(sorted.len() / 2).copied().unwrap_or(0);
        SearchArm {
            ops,
            mean_ns,
            median_ns,
            p50_ns: self.hist.quantile_ns(0.50),
            p95_ns: self.hist.quantile_ns(0.95),
            p99_ns: self.hist.quantile_ns(0.99),
        }
    }
}

/// Run the search-path benchmark: one **in-memory** daemon (searches never
/// touch the journal, and durable corpus loading would dominate the run),
/// one Scheme 2 client on the base counter policy so every one of the
/// `SEARCH_GENERATIONS` fake updates advances the chain. Three measured
/// comparisons on the same corpus:
///
/// * **cold** — first search per keyword: the server walks the trapdoor
///   through every generation (memo miss);
/// * **repeat** — the same keywords again: the memo answers from
///   `(tag, applied_seq)` without re-walking the chain;
/// * **single_group vs batch** — `SEARCH_BATCH` warm searches issued as
///   sequential rounds vs one `SEARCH_MANY` envelope, measuring the
///   fan-out + round-trip amortization win on identical work.
///
/// # Errors
/// Daemon spawn, connection, or scheme errors.
///
/// # Panics
/// Panics if the daemon returns a position-misaligned batch (the client
/// verifies arity, so this indicates a server bug).
pub fn run_search_bench(opts: &BenchOptions) -> Result<SearchBenchReport> {
    let shards = opts.shards.max(1);
    let keywords = opts.keywords.max(SEARCH_BATCH);
    let config = ServerConfig {
        workers: 4,
        queue_depth: 64,
        tenant_params: TenantParams {
            shards,
            ..TenantParams::default()
        },
        data_dir: None,
        ..ServerConfig::default()
    };
    let daemon = Daemon::spawn(config).map_err(|e| Error::other(format!("spawn: {e}")))?;
    let addr = daemon.local_addr().to_string();

    let scheme = |e: sse_core::error::SseError| Error::other(e.to_string());
    let mut c = connect_scheme2(
        &addr,
        opts.seed,
        0,
        Scheme2Config::standard().with_ctr_policy(CtrPolicy::Always),
    )?;
    let kws: Vec<Keyword> = (0..keywords).map(keyword).collect();
    for _ in 0..SEARCH_GENERATIONS {
        c.fake_update(&kws).map_err(scheme)?;
    }

    let mut cold_rec = ArmRecorder::new();
    for kw in &kws {
        let started = Instant::now();
        c.search(kw).map_err(scheme)?;
        cold_rec.record(started.elapsed());
    }

    let mut repeat_rec = ArmRecorder::new();
    for _ in 0..REPEAT_PASSES {
        for kw in &kws {
            let started = Instant::now();
            c.search(kw).map_err(scheme)?;
            repeat_rec.record(started.elapsed());
        }
    }

    let mut single_rec = ArmRecorder::new();
    let mut batch_rec = ArmRecorder::new();
    for round in 0..BATCH_ROUNDS {
        let window: Vec<Keyword> = (0..SEARCH_BATCH)
            .map(|i| keyword((round * SEARCH_BATCH + i) % keywords))
            .collect();
        let started = Instant::now();
        for kw in &window {
            c.search(kw).map_err(scheme)?;
        }
        single_rec.record(started.elapsed());
        let started = Instant::now();
        let got = c.search_batch(&window).map_err(scheme)?;
        batch_rec.record(started.elapsed());
        assert_eq!(got.len(), SEARCH_BATCH, "batch arity verified by client");
    }

    let mut admin = TcpTransport::connect(&addr, "bench-tenant", SchemeId::Scheme2)?;
    let stats = admin.admin_stats()?;
    drop(admin);
    daemon.shutdown();

    let cold = cold_rec.finish();
    let repeat = repeat_rec.finish();
    let single_group = single_rec.finish();
    let batch = batch_rec.finish();
    #[allow(clippy::cast_precision_loss)]
    let repeat_speedup = cold.median_ns as f64 / (repeat.median_ns as f64).max(1.0);
    #[allow(clippy::cast_precision_loss)]
    let batch_speedup = single_group.median_ns as f64 / (batch.median_ns as f64).max(1.0);
    Ok(SearchBenchReport {
        options: opts.clone(),
        generations: SEARCH_GENERATIONS,
        cold,
        repeat,
        single_group,
        batch,
        repeat_speedup,
        batch_speedup,
        cache_hits: stats.search_cache_hits,
        cache_misses: stats.search_cache_misses,
        walk_steps_saved: stats.walk_steps_saved,
    })
}

/// Parameters for the idle-connection reactor benchmark.
#[derive(Clone, Debug)]
pub struct IdleBenchOptions {
    /// Idle tenant connections to open and hold (each completes a hello
    /// and then goes silent).
    pub idle_conns: usize,
    /// Workload seed (hot corpus content and search order derive from it).
    pub seed: u64,
    /// Distinct keywords in the hot searcher's corpus.
    pub keywords: usize,
    /// Documents in the hot searcher's corpus.
    pub docs: usize,
    /// Measured hot-search window per arm (baseline and under load).
    pub duration: Duration,
}

impl Default for IdleBenchOptions {
    fn default() -> Self {
        IdleBenchOptions {
            idle_conns: 10_000,
            seed: 7,
            keywords: 32,
            docs: 32,
            duration: Duration::from_millis(1500),
        }
    }
}

/// `BENCH_reactor.json`: idle-connection scaling of the epoll reactor.
#[derive(Clone, Debug)]
pub struct IdleBenchReport {
    /// Parameters the run used.
    pub options: IdleBenchOptions,
    /// Idle connections actually held when sampling finished (equals
    /// `options.idle_conns` unless the host ran out of fds or ports).
    pub idle_conns_held: usize,
    /// Daemon-process RSS (kB) before any idle connection was opened.
    pub rss_start_kb: u64,
    /// Daemon-process RSS (kB) with half the idle connections open.
    pub rss_half_kb: u64,
    /// Daemon-process RSS (kB) with every idle connection open.
    pub rss_full_kb: u64,
    /// Daemon RSS growth per connection over the first half (bytes).
    pub per_idle_conn_bytes_first_half: f64,
    /// Daemon RSS growth per connection over the second half (bytes).
    /// Flat scaling means this stays in the same regime as the first
    /// half — superlinear growth here is the failure the benchmark
    /// exists to catch.
    pub per_idle_conn_bytes_second_half: f64,
    /// Hot warm-search latency with no idle connections.
    pub baseline: SearchArm,
    /// The same hot workload while every idle connection is held.
    pub loaded: SearchArm,
    /// `loaded.p99_ns / baseline.p99_ns` — the reactor must not tax the
    /// hot path for connections that never become readable.
    pub hot_p99_ratio: f64,
    /// `loaded.median_ns / baseline.median_ns` (medians shrug off
    /// scheduler stalls that a 1-core CI host injects into p99).
    pub hot_median_ratio: f64,
    /// Connections the daemon accepted over the whole run.
    pub conns_accepted: u64,
    /// Connections open at peak (sampled after the idle herd finished
    /// connecting).
    pub conns_open_peak: u64,
    /// Idle reaps during the run — must be 0 (the bench idle timeout is
    /// far longer than the run).
    pub idle_reaped: u64,
    /// Slow-reader disconnects during the run — must be 0.
    pub slow_reader_disconnects: u64,
    /// Accept-time rejections (`max_conns` cap) — must be 0.
    pub conns_rejected: u64,
    /// Reactor wakeup-pipe notifications over the run.
    pub reactor_wakeups: u64,
    /// Responses that could not be written in one syscall and waited for
    /// `EPOLLOUT`.
    pub writes_deferred: u64,
    /// Wall clock of the graceful drain with every idle connection open.
    pub drain_ms: u64,
    /// Whether the daemon process exited with status 0 after the drain.
    pub drain_clean: bool,
}

impl IdleBenchReport {
    /// Serialize as the `BENCH_reactor.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n\"benchmark\":\"sse-reactor-idle\",\n\"seed\":{},\n\
             \"idle_conns_target\":{},\n\"idle_conns_held\":{},\n\
             \"duration_ms\":{},\n\"rss_start_kb\":{},\n\"rss_half_kb\":{},\n\
             \"rss_full_kb\":{},\n\"per_idle_conn_bytes_first_half\":{:.1},\n\
             \"per_idle_conn_bytes_second_half\":{:.1},\n\
             \"arms\":[\n{},\n{}\n],\n\
             \"hot_p99_ratio\":{:.3},\n\"hot_median_ratio\":{:.3},\n\
             \"conns_accepted\":{},\n\"conns_open_peak\":{},\n\
             \"idle_reaped\":{},\n\"slow_reader_disconnects\":{},\n\
             \"conns_rejected\":{},\n\"reactor_wakeups\":{},\n\
             \"writes_deferred\":{},\n\"drain_ms\":{},\n\"drain_clean\":{}\n}}\n",
            self.options.seed,
            self.options.idle_conns,
            self.idle_conns_held,
            self.options.duration.as_millis(),
            self.rss_start_kb,
            self.rss_half_kb,
            self.rss_full_kb,
            self.per_idle_conn_bytes_first_half,
            self.per_idle_conn_bytes_second_half,
            search_arm_json("hot_baseline", &self.baseline),
            search_arm_json("hot_under_idle_load", &self.loaded),
            self.hot_p99_ratio,
            self.hot_median_ratio,
            self.conns_accepted,
            self.conns_open_peak,
            self.idle_reaped,
            self.slow_reader_disconnects,
            self.conns_rejected,
            self.reactor_wakeups,
            self.writes_deferred,
            self.drain_ms,
            self.drain_clean,
        )
    }
}

/// Resident set size of `pid` in kB from `/proc/<pid>/status`, or 0
/// where that interface does not exist (the report then carries zeros
/// and the CI gate is skipped rather than lying).
fn rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The `sse-serverd` child the idle benchmark drives: killed on drop so
/// an error path never leaks a listening daemon. The stdout handle stays
/// open for the child's lifetime (dropping it would turn the daemon's
/// exit summary into a fatal `EPIPE`).
struct BenchDaemon {
    child: std::process::Child,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Drop for BenchDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn the sibling `sse-serverd` binary on an ephemeral port and parse
/// the bound address from its startup banner. Both binaries are built
/// into the same directory, so the sibling path needs no configuration.
fn spawn_bench_daemon(max_conns: usize) -> Result<BenchDaemon> {
    use std::io::BufRead;
    let exe = std::env::current_exe()?;
    let serverd = exe
        .parent()
        .map(|d| d.join("sse-serverd"))
        .filter(|p| p.exists())
        .ok_or_else(|| {
            Error::other(format!(
                "sse-serverd not found next to {} (build both binaries)",
                exe.display()
            ))
        })?;
    let mut child = std::process::Command::new(serverd)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "256",
            // Far beyond the run length: any reap during the bench is a
            // bug in the activity accounting, and the report shows it.
            "--idle-timeout-ms",
            "3600000",
            "--scrub-interval-ms",
            "0",
            "--max-conns",
            &max_conns.to_string(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| Error::other("no stdout pipe from sse-serverd"))?;
    let mut stdout = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        if stdout.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(Error::other("sse-serverd exited before binding"));
        }
        if let Some(rest) = line.strip_prefix("sse-serverd listening on ") {
            match rest.split_whitespace().next() {
                Some(addr) => break addr.to_string(),
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(Error::other(format!("unparseable banner: {line}")));
                }
            }
        }
    };
    Ok(BenchDaemon {
        child,
        _stdout: stdout,
        addr,
    })
}

/// Open one idle tenant connection: complete the hello round trip, then
/// leave the socket silent for the rest of the run.
fn open_idle_conn(addr: &str, hello: &[u8]) -> Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(hello)?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body)?;
    let (status, seq, _) =
        proto::decode_response(&body).ok_or_else(|| Error::other("malformed hello response"))?;
    if (status, seq) != (STATUS_OK, HELLO_SEQ) {
        return Err(Error::other(format!("hello rejected: status {status}")));
    }
    Ok(stream)
}

/// One hot arm: a warm Scheme 2 searcher in a closed loop for the
/// measured window (corpus stored and chains warmed before the clock
/// starts, so every measured operation is a memo-served search).
fn run_hot_arm(addr: &str, opts: &IdleBenchOptions, client: usize) -> Result<SearchArm> {
    let corpus_opts = BenchOptions {
        clients: 1,
        shards: 1,
        seed: opts.seed,
        keywords: opts.keywords,
        docs: opts.docs,
        duration: opts.duration,
    };
    let mut c = connect_scheme2(
        addr,
        opts.seed,
        client,
        Scheme2Config::standard().with_chain_length(64),
    )?;
    c.store_batch(&corpus(&corpus_opts, client))
        .map_err(|e| Error::other(format!("hot corpus store: {e}")))?;
    let kws: Vec<Keyword> = (0..opts.keywords.max(1)).map(keyword).collect();
    for kw in &kws {
        c.search(kw).map_err(|e| Error::other(e.to_string()))?;
    }
    let mut rec = ArmRecorder::new();
    let mut rng = SplitMix(opts.seed ^ ((client as u64) << 9) ^ 0x1d1e);
    let deadline = Instant::now() + opts.duration;
    while Instant::now() < deadline {
        let kw = &kws[(rng.next() as usize) % kws.len()];
        let started = Instant::now();
        c.search(kw).map_err(|e| Error::other(e.to_string()))?;
        rec.record(started.elapsed());
    }
    Ok(rec.finish())
}

/// Run the idle-connection reactor benchmark: spawn an **in-memory**
/// `sse-serverd` child (idle scaling is a memory and scheduling
/// question, not a durability one), measure a hot warm-search baseline,
/// then hold `opts.idle_conns` silent tenant connections open while the
/// same hot workload repeats. The daemon's RSS is sampled before, at
/// half strength, and at full strength; the daemon then drains
/// gracefully — via `ADMIN_SHUTDOWN` with every idle connection still
/// open — and must exit clean.
///
/// This process's fd limit is raised first (the herd holds one client
/// fd per connection; the daemon raises its own limit from `--max-conns`
/// at startup). If a limit cannot be raised the herd stops at the first
/// failed connect and `idle_conns_held` records how far it got.
///
/// # Errors
/// Daemon spawn, hot-workload, or admin-protocol errors. A mid-herd
/// connect failure is not an error — the report simply holds fewer
/// connections.
pub fn run_idle_bench(opts: &IdleBenchOptions) -> Result<IdleBenchReport> {
    let target = opts.idle_conns;
    // One client fd per held connection plus headroom for the hot client
    // and admin connections.
    let wanted = (target as u64) + 1024;
    if let Ok(got) = epoll::raise_nofile_limit(wanted) {
        if got < wanted {
            eprintln!("sse-bench: fd limit {got} below {wanted}; the idle herd may fall short");
        }
    }
    let mut daemon = spawn_bench_daemon(target + 64)?;
    let addr = daemon.addr.clone();
    let pid = daemon.child.id();

    let baseline = run_hot_arm(&addr, opts, 0)?;

    let hello = encode_frame(
        &Hello {
            tenant: "idle-tenant".into(),
            scheme: SchemeId::Scheme1,
        }
        .encode(),
    );
    let rss_start_kb = rss_kb(pid);
    let mut herd = Vec::with_capacity(target);
    let mut rss_half_kb = rss_start_kb;
    while herd.len() < target {
        match open_idle_conn(&addr, &hello) {
            Ok(s) => herd.push(s),
            Err(e) => {
                eprintln!(
                    "sse-bench: idle herd stopped at {} of {target}: {e}",
                    herd.len()
                );
                break;
            }
        }
        if herd.len() == target / 2 {
            rss_half_kb = rss_kb(pid);
        }
    }
    let rss_full_kb = rss_kb(pid);
    let held = herd.len();

    let loaded = run_hot_arm(&addr, opts, 1)?;

    let mut admin = TcpTransport::connect(&addr, "bench-admin", SchemeId::Scheme2)?;
    let stats = admin.admin_stats()?;
    let drain_started = Instant::now();
    admin.admin_shutdown()?;
    drop(admin);
    let status = daemon.child.wait()?;
    let drain_ms = u64::try_from(drain_started.elapsed().as_millis()).unwrap_or(u64::MAX);
    drop(herd);

    let first_half = held / 2;
    let second_half = held - first_half;
    #[allow(clippy::cast_precision_loss)]
    let per_first =
        (rss_half_kb.saturating_sub(rss_start_kb) * 1024) as f64 / (first_half.max(1)) as f64;
    #[allow(clippy::cast_precision_loss)]
    let per_second =
        (rss_full_kb.saturating_sub(rss_half_kb) * 1024) as f64 / (second_half.max(1)) as f64;
    #[allow(clippy::cast_precision_loss)]
    let hot_p99_ratio = loaded.p99_ns as f64 / (baseline.p99_ns as f64).max(1.0);
    #[allow(clippy::cast_precision_loss)]
    let hot_median_ratio = loaded.median_ns as f64 / (baseline.median_ns as f64).max(1.0);
    Ok(IdleBenchReport {
        options: opts.clone(),
        idle_conns_held: held,
        rss_start_kb,
        rss_half_kb,
        rss_full_kb,
        per_idle_conn_bytes_first_half: per_first,
        per_idle_conn_bytes_second_half: per_second,
        baseline,
        loaded,
        hot_p99_ratio,
        hot_median_ratio,
        conns_accepted: stats.conns_accepted,
        conns_open_peak: stats.conns_open,
        idle_reaped: stats.conns_idle_reaped,
        slow_reader_disconnects: stats.slow_reader_disconnects,
        conns_rejected: stats.conns_rejected,
        reactor_wakeups: stats.reactor_wakeups,
        writes_deferred: stats.writes_deferred,
        drain_ms,
        drain_clean: status.success(),
    })
}

/// Parameters for the zero-copy hot-path benchmark.
#[derive(Clone, Debug)]
pub struct HotpathOptions {
    /// Workload seed (corpus content derives from it).
    pub seed: u64,
    /// Distinct keywords in the warmed corpus.
    pub keywords: usize,
    /// Documents in the warmed corpus.
    pub docs: usize,
    /// Measured window per arm.
    pub duration: Duration,
    /// Requests per round in the pipelined arm (the other two arms run
    /// closed-loop, one request in flight).
    pub depth: usize,
}

impl Default for HotpathOptions {
    fn default() -> Self {
        HotpathOptions {
            seed: 7,
            keywords: 32,
            docs: 32,
            duration: Duration::from_millis(1500),
            depth: 16,
        }
    }
}

/// Transport shim recording the scheme-level bytes of the last single
/// round trip, so the measured loop can replay one warm search verbatim
/// over a bare socket — the same bytes every round, which takes the
/// client's crypto out of the measurement and leaves only the serving
/// pipeline. Batch rounds pass through uncaptured (corpus loading).
struct CaptureTransport {
    inner: TcpTransport,
    last_request: Vec<u8>,
}

impl Transport for CaptureTransport {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.last_request = request.to_vec();
        self.inner.round_trip(request)
    }

    fn round_trip_batch(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        self.inner.round_trip_batch(parts)
    }

    fn round_trip_search_batch(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        self.inner.round_trip_search_batch(parts)
    }
}

/// One hot-path arm's measurements. Counter fields are deltas over the
/// measured window only (warm-up traffic excluded); latency quantiles are
/// per *round* — one request for the closed-loop arms, `depth` pipelined
/// requests for the pipelined arm.
#[derive(Clone, Debug)]
pub struct HotpathArm {
    /// Arm label (`legacy`, `pooled`, `pipelined`).
    pub name: &'static str,
    /// Whether the daemon served from pooled buffers.
    pub pool: bool,
    /// Requests in flight per round.
    pub depth: usize,
    /// Search requests completed inside the window.
    pub ops: u64,
    /// Search throughput.
    pub ops_per_sec: f64,
    /// Server-thread heap acquisitions per request (zero unless the
    /// hosting binary installed the counting allocator).
    pub allocs_per_op: f64,
    /// Server-thread heap bytes requested per request.
    pub alloc_bytes_per_op: f64,
    /// Payload bytes memcpy'd on the serving path per request (the
    /// counter the pooled pipeline exists to drive to zero).
    pub bytes_copied_per_op: f64,
    /// Pool acquires served from a recycled buffer.
    pub pool_hits: u64,
    /// Pool acquires that fell through to a fresh allocation.
    pub pool_misses: u64,
    /// Buffers returned to a free list on drop.
    pub pool_recycles: u64,
    /// `hits / (hits + misses)` (0 when the pool is off).
    pub pool_hit_rate: f64,
    /// Gather-write syscalls issued by the reactor.
    pub writev_calls: u64,
    /// Response frames those syscalls finished writing.
    pub writev_frames: u64,
    /// `writev_frames / writev_calls` — above 1.0 means queued responses
    /// coalesced into shared syscalls.
    pub mean_writev_batch: f64,
    /// Worker completions absorbed by an already-pending reactor wakeup.
    pub wakeups_coalesced: u64,
    /// Client-observed p50 per round (ns).
    pub p50_ns: u64,
    /// Client-observed p99 per round (ns).
    pub p99_ns: u64,
}

fn hotpath_arm_json(a: &HotpathArm) -> String {
    format!(
        "{{\"arm\":\"{}\",\"pool\":{},\"depth\":{},\"ops\":{},\
         \"ops_per_sec\":{:.2},\"allocs_per_op\":{:.3},\
         \"alloc_bytes_per_op\":{:.1},\"bytes_copied_per_op\":{:.1},\
         \"pool_hits\":{},\"pool_misses\":{},\"pool_recycles\":{},\
         \"pool_hit_rate\":{:.4},\"writev_calls\":{},\"writev_frames\":{},\
         \"mean_writev_batch\":{:.3},\"wakeups_coalesced\":{},\
         \"p50_ns\":{},\"p99_ns\":{}}}",
        a.name,
        a.pool,
        a.depth,
        a.ops,
        a.ops_per_sec,
        a.allocs_per_op,
        a.alloc_bytes_per_op,
        a.bytes_copied_per_op,
        a.pool_hits,
        a.pool_misses,
        a.pool_recycles,
        a.pool_hit_rate,
        a.writev_calls,
        a.writev_frames,
        a.mean_writev_batch,
        a.wakeups_coalesced,
        a.p50_ns,
        a.p99_ns,
    )
}

/// `BENCH_hotpath.json`: the zero-copy serving pipeline A/B/C.
#[derive(Clone, Debug)]
pub struct HotpathReport {
    /// Parameters the run used.
    pub options: HotpathOptions,
    /// Owned-buffer fallback (`pool: false`), closed loop.
    pub legacy: HotpathArm,
    /// Pooled pipeline (the default), closed loop.
    pub pooled: HotpathArm,
    /// Pooled pipeline under `depth` pipelined requests per round — the
    /// regime where queued responses share `writev` syscalls.
    pub pipelined: HotpathArm,
    /// `1 - pooled.allocs_per_op / legacy.allocs_per_op` — the headline
    /// allocation win (0 when the counting allocator is not installed).
    pub alloc_reduction: f64,
    /// `1 - pooled.bytes_copied_per_op / legacy.bytes_copied_per_op`.
    pub copy_reduction: f64,
    /// `pooled.p99_ns / legacy.p99_ns` (both closed-loop) — pooling must
    /// not tax tail latency.
    pub p99_ratio: f64,
    /// The pipelined arm's mean `writev` batch, pulled up as the CI
    /// gate's headline number.
    pub pipelined_mean_writev_batch: f64,
}

impl HotpathReport {
    /// Serialize as the `BENCH_hotpath.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n\"benchmark\":\"sse-hotpath\",\n\"seed\":{},\n\"keywords\":{},\n\
             \"docs\":{},\n\"duration_ms\":{},\n\"depth\":{},\n\
             \"arms\":[\n{},\n{},\n{}\n],\n\
             \"alloc_reduction\":{:.4},\n\"copy_reduction\":{:.4},\n\
             \"p99_ratio\":{:.3},\n\"pipelined_mean_writev_batch\":{:.3}\n}}\n",
            self.options.seed,
            self.options.keywords,
            self.options.docs,
            self.options.duration.as_millis(),
            self.options.depth,
            hotpath_arm_json(&self.legacy),
            hotpath_arm_json(&self.pooled),
            hotpath_arm_json(&self.pipelined),
            self.alloc_reduction,
            self.copy_reduction,
            self.p99_ratio,
            self.pipelined_mean_writev_batch,
        )
    }
}

/// Read one frame-aligned response off a raw benchmark socket. Pipelined
/// responses arrive as a byte stream; `read_exact` reassembles them
/// regardless of how the kernel segmented the writes.
fn read_raw_response(stream: &mut TcpStream) -> Result<(u8, u32)> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body)?;
    let (status, seq, _payload) =
        proto::decode_response(&body).ok_or_else(|| Error::other("malformed response frame"))?;
    Ok((status, seq))
}

/// Run one hot-path arm: spawn an **in-memory** daemon (the hot path is a
/// serving question, not a durability one), warm a tenant through the
/// ordinary scheme client while capturing the bytes of one memo-served
/// search, then replay that search over a bare socket — `depth` copies
/// per round in a single write, collecting `depth` responses (workers
/// may finish them out of order; each must be `OK`). Counters are
/// snapshotted on either side of the measured loop so warm-up traffic
/// never pollutes the per-op numbers.
fn run_hotpath_arm(
    opts: &HotpathOptions,
    name: &'static str,
    pool: bool,
    depth: usize,
) -> Result<HotpathArm> {
    let depth = depth.max(1);
    let config = ServerConfig {
        workers: 4,
        queue_depth: (depth * 4).max(64),
        pool,
        data_dir: None,
        ..ServerConfig::default()
    };
    let daemon = Daemon::spawn(config).map_err(|e| Error::other(format!("spawn: {e}")))?;
    let addr = daemon.local_addr().to_string();

    // Warm-up: store the corpus and search every keyword once so the
    // measured replay is a memo-served search (the serving pipeline is
    // the subject here, not the chain walk). Searches are read-only, so
    // replaying the captured bytes any number of times is legal.
    let corpus_opts = BenchOptions {
        clients: 1,
        shards: 1,
        seed: opts.seed,
        keywords: opts.keywords,
        docs: opts.docs,
        duration: opts.duration,
    };
    let transport = CaptureTransport {
        inner: TcpTransport::connect(&addr, "bench-tenant", SchemeId::Scheme2)?,
        last_request: Vec::new(),
    };
    let key = MasterKey::from_seed(opts.seed ^ 0xBEBC);
    let mut c = Scheme2Client::new_seeded(
        transport,
        key,
        Scheme2Config::standard().with_chain_length(64),
        opts.seed,
    );
    let scheme = |e: sse_core::error::SseError| Error::other(e.to_string());
    c.store_batch(&corpus(&corpus_opts, 0))
        .map_err(|e| Error::other(format!("hotpath store: {e}")))?;
    let kws: Vec<Keyword> = (0..opts.keywords.max(1)).map(keyword).collect();
    for kw in &kws {
        c.search(kw).map_err(scheme)?;
    }
    c.search(&kws[0]).map_err(scheme)?;
    let search_request = c.transport_mut().last_request.clone();
    drop(c);
    if search_request.is_empty() {
        return Err(Error::other("no search request captured"));
    }

    // The raw replay socket: hello once, then rounds of `depth` requests
    // shipped in one write. Distinct sequence numbers per slot keep the
    // wire honest, though responses are only checked for status (workers
    // complete pipelined requests in any order).
    let mut stream = TcpStream::connect(&addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(&encode_frame(
        &Hello {
            tenant: "bench-tenant".into(),
            scheme: SchemeId::Scheme2,
        }
        .encode(),
    ))?;
    let (status, seq) = read_raw_response(&mut stream)?;
    if (status, seq) != (STATUS_OK, HELLO_SEQ) {
        return Err(Error::other(format!("hello rejected: status {status}")));
    }
    let mut burst = Vec::new();
    for slot in 0..depth {
        let seq = 1 + u32::try_from(slot).unwrap_or(0);
        burst.extend_from_slice(&encode_frame(&proto::encode_request(
            KIND_DATA,
            seq,
            &search_request,
        )));
    }

    let mut admin = TcpTransport::connect(&addr, "bench-tenant", SchemeId::Scheme2)?;
    let before = admin.admin_stats()?;
    let alloc_before = allocmeter::counters();

    let mut rec = ArmRecorder::new();
    let mut ops: u64 = 0;
    let window = Instant::now();
    let deadline = window + opts.duration;
    while Instant::now() < deadline {
        let started = Instant::now();
        stream.write_all(&burst)?;
        for _ in 0..depth {
            let (status, _seq) = read_raw_response(&mut stream)?;
            if status != STATUS_OK {
                return Err(Error::other(format!(
                    "hotpath search failed: status {status}"
                )));
            }
        }
        rec.record(started.elapsed());
        ops += depth as u64;
    }
    let elapsed = window.elapsed();

    // Allocation delta first (only server threads are tracked, but the
    // closing admin round trip would otherwise land inside it), stats
    // delta second (which must include every measured op).
    let alloc_delta = allocmeter::counters().since(&alloc_before);
    let after = admin.admin_stats()?;
    drop(admin);
    drop(stream);
    daemon.shutdown();

    let pool_hits = after.pool_hits.saturating_sub(before.pool_hits);
    let pool_misses = after.pool_misses.saturating_sub(before.pool_misses);
    let pool_recycles = after.pool_recycles.saturating_sub(before.pool_recycles);
    let writev_calls = after.writev_calls.saturating_sub(before.writev_calls);
    let writev_frames = after.writev_frames.saturating_sub(before.writev_frames);
    let wakeups_coalesced = after
        .wakeups_coalesced
        .saturating_sub(before.wakeups_coalesced);
    let bytes_copied = after.bytes_copied.saturating_sub(before.bytes_copied);
    let lat = rec.finish();
    #[allow(clippy::cast_precision_loss)]
    let ops_f = (ops.max(1)) as f64;
    #[allow(clippy::cast_precision_loss)]
    let ops_per_sec = ops as f64 / elapsed.as_secs_f64().max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let pool_hit_rate = pool_hits as f64 / ((pool_hits + pool_misses).max(1)) as f64;
    #[allow(clippy::cast_precision_loss)]
    let mean_writev_batch = writev_frames as f64 / (writev_calls.max(1)) as f64;
    #[allow(clippy::cast_precision_loss)]
    Ok(HotpathArm {
        name,
        pool,
        depth,
        ops,
        ops_per_sec,
        allocs_per_op: alloc_delta.allocs as f64 / ops_f,
        alloc_bytes_per_op: alloc_delta.bytes as f64 / ops_f,
        bytes_copied_per_op: bytes_copied as f64 / ops_f,
        pool_hits,
        pool_misses,
        pool_recycles,
        pool_hit_rate,
        writev_calls,
        writev_frames,
        mean_writev_batch,
        wakeups_coalesced,
        p50_ns: lat.p50_ns,
        p99_ns: lat.p99_ns,
    })
}

/// Run the zero-copy hot-path benchmark: three arms on identical warmed
/// corpora — the owned-buffer fallback, the pooled pipeline, and the
/// pooled pipeline under a pipelined burst (where queued responses share
/// gather-write syscalls). Per-op allocation numbers require the hosting
/// binary to install [`allocmeter::CountingAlloc`] as its global
/// allocator (`sse-load` does); without it they read zero and the
/// reduction headline reads 0.
///
/// # Errors
/// Daemon spawn, connection, scheme, or protocol errors from any arm.
pub fn run_hotpath_bench(opts: &HotpathOptions) -> Result<HotpathReport> {
    let legacy = run_hotpath_arm(opts, "legacy", false, 1)?;
    let pooled = run_hotpath_arm(opts, "pooled", true, 1)?;
    let pipelined = run_hotpath_arm(opts, "pipelined", true, opts.depth)?;
    let alloc_reduction = if legacy.allocs_per_op > 0.0 {
        1.0 - pooled.allocs_per_op / legacy.allocs_per_op
    } else {
        0.0
    };
    let copy_reduction = if legacy.bytes_copied_per_op > 0.0 {
        1.0 - pooled.bytes_copied_per_op / legacy.bytes_copied_per_op
    } else {
        0.0
    };
    #[allow(clippy::cast_precision_loss)]
    let p99_ratio = pooled.p99_ns as f64 / (legacy.p99_ns as f64).max(1.0);
    let pipelined_mean_writev_batch = pipelined.mean_writev_batch;
    Ok(HotpathReport {
        options: opts.clone(),
        legacy,
        pooled,
        pipelined,
        alloc_reduction,
        copy_reduction,
        p99_ratio,
        pipelined_mean_writev_batch,
    })
}

/// Parameters for the scheduler/affinity benchmark.
#[derive(Clone, Debug)]
pub struct SchedOptions {
    /// Workload seed (corpus content derives from it).
    pub seed: u64,
    /// Distinct tenants, each with its own warmed corpus and raw replay
    /// socket. Tenant 0 is the hot tenant in the skewed arms.
    pub tenants: usize,
    /// Distinct keywords per tenant corpus.
    pub keywords: usize,
    /// Documents per tenant corpus.
    pub docs: usize,
    /// Measured window per arm.
    pub duration: Duration,
    /// Pipelined requests per round (one round drives one tenant).
    pub depth: usize,
    /// Scheme searches inside each `SEARCH_MANY` slot.
    pub batch_parts: usize,
}

impl Default for SchedOptions {
    fn default() -> Self {
        SchedOptions {
            seed: 11,
            tenants: 8,
            keywords: 8,
            docs: 8,
            duration: Duration::from_millis(1500),
            depth: 32,
            batch_parts: 4,
        }
    }
}

/// One scheduler arm's measurements. Scheduler counters and thread
/// spawns are deltas over the measured window; the queue/service
/// quantiles come from the daemon's lifetime histograms (the daemon is
/// fresh per arm, so warm-up is the only extra traffic in them).
#[derive(Clone, Debug)]
pub struct SchedArm {
    /// Arm label (`affinity_uniform`, `global_skewed`, ...).
    pub name: &'static str,
    /// Whether jobs routed by tenant hash (vs round-robin baseline).
    pub affinity: bool,
    /// Whether tenant 0 carried the skewed hot weight.
    pub skewed: bool,
    /// Wire requests completed inside the window.
    pub ops: u64,
    /// Wire request throughput.
    pub ops_per_sec: f64,
    /// Client-observed p50 per round of `depth` pipelined requests (ns).
    pub p50_ns: u64,
    /// Client-observed p99 per round (ns).
    pub p99_ns: u64,
    /// Server-side queue-wait p50 (accepted → worker dequeue, ns).
    pub queue_p50_ns: u64,
    /// Server-side queue-wait p99 (ns).
    pub queue_p99_ns: u64,
    /// Server-side service-time p50 (dequeue → response, ns).
    pub service_p50_ns: u64,
    /// Server-side service-time p99 (ns).
    pub service_p99_ns: u64,
    /// Jobs accepted by the scheduler.
    pub sched_routed: u64,
    /// Jobs a worker popped from its own queue with itself as home.
    pub sched_local_hits: u64,
    /// Jobs taken from another worker's queue.
    pub sched_stolen: u64,
    /// Jobs that overflowed their home queue into another on submit.
    pub sched_spilled: u64,
    /// Deepest any single run queue got (high-water mark, not a delta).
    pub sched_queue_depth_hw: u64,
    /// `SEARCH_MANY` batches executed by the fan-out executor.
    pub fanout_batches: u64,
    /// Batch parts claimed by helper workers (not the owning worker).
    pub fanout_parts_helped: u64,
    /// Serving-path OS threads spawned inside the window — the number
    /// the spawn-free executor exists to hold at zero.
    pub thread_spawns: u64,
}

fn sched_arm_json(a: &SchedArm) -> String {
    format!(
        "{{\"arm\":\"{}\",\"affinity\":{},\"skewed\":{},\"ops\":{},\
         \"ops_per_sec\":{:.2},\"p50_ns\":{},\"p99_ns\":{},\
         \"queue_p50_ns\":{},\"queue_p99_ns\":{},\
         \"service_p50_ns\":{},\"service_p99_ns\":{},\
         \"sched_routed\":{},\"sched_local_hits\":{},\"sched_stolen\":{},\
         \"sched_spilled\":{},\"sched_queue_depth_hw\":{},\
         \"fanout_batches\":{},\"fanout_parts_helped\":{},\
         \"thread_spawns\":{}}}",
        a.name,
        a.affinity,
        a.skewed,
        a.ops,
        a.ops_per_sec,
        a.p50_ns,
        a.p99_ns,
        a.queue_p50_ns,
        a.queue_p99_ns,
        a.service_p50_ns,
        a.service_p99_ns,
        a.sched_routed,
        a.sched_local_hits,
        a.sched_stolen,
        a.sched_spilled,
        a.sched_queue_depth_hw,
        a.fanout_batches,
        a.fanout_parts_helped,
        a.thread_spawns,
    )
}

/// `BENCH_sched.json`: the affinity-sharded runtime vs its round-robin
/// baseline, under uniform and skewed tenant load.
#[derive(Clone, Debug)]
pub struct SchedReport {
    /// Parameters the run used.
    pub options: SchedOptions,
    /// Affinity routing, every tenant weighted equally.
    pub affinity_uniform: SchedArm,
    /// Round-robin baseline, every tenant weighted equally.
    pub global_uniform: SchedArm,
    /// Affinity routing, tenant 0 carrying ~75% of rounds.
    pub affinity_skewed: SchedArm,
    /// Round-robin baseline under the same skew.
    pub global_skewed: SchedArm,
    /// `affinity_uniform.ops_per_sec / global_uniform.ops_per_sec` —
    /// affinity must not tax balanced load.
    pub uniform_throughput_ratio: f64,
    /// `affinity_skewed.ops_per_sec / global_skewed.ops_per_sec`.
    pub skew_throughput_ratio: f64,
    /// `affinity_skewed.p99_ns / global_skewed.p99_ns` — stealing must
    /// keep the hot tenant's tail comparable to the spread baseline.
    pub skew_p99_ratio: f64,
    /// Same ratio on the server-side queue-wait p99 — the component the
    /// scheduler actually controls.
    pub skew_queue_p99_ratio: f64,
    /// Steals inside the affinity/skewed window: nonzero proves idle
    /// workers drained the hot queue instead of spinning.
    pub steals_under_skew: u64,
    /// Thread spawns summed across all four measured windows — the CI
    /// gate pins this to exactly zero.
    pub steady_state_thread_spawns: u64,
}

impl SchedReport {
    /// Serialize as the `BENCH_sched.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n\"benchmark\":\"sse-sched\",\n\"seed\":{},\n\"tenants\":{},\n\
             \"keywords\":{},\n\"docs\":{},\n\"duration_ms\":{},\n\
             \"depth\":{},\n\"batch_parts\":{},\n\
             \"arms\":[\n{},\n{},\n{},\n{}\n],\n\
             \"uniform_throughput_ratio\":{:.4},\n\
             \"skew_throughput_ratio\":{:.4},\n\"skew_p99_ratio\":{:.3},\n\
             \"skew_queue_p99_ratio\":{:.3},\n\"steals_under_skew\":{},\n\
             \"steady_state_thread_spawns\":{}\n}}\n",
            self.options.seed,
            self.options.tenants,
            self.options.keywords,
            self.options.docs,
            self.options.duration.as_millis(),
            self.options.depth,
            self.options.batch_parts,
            sched_arm_json(&self.affinity_uniform),
            sched_arm_json(&self.global_uniform),
            sched_arm_json(&self.affinity_skewed),
            sched_arm_json(&self.global_skewed),
            self.uniform_throughput_ratio,
            self.skew_throughput_ratio,
            self.skew_p99_ratio,
            self.skew_queue_p99_ratio,
            self.steals_under_skew,
            self.steady_state_thread_spawns,
        )
    }
}

/// Rounds each tenant receives per schedule cycle: uniform gives every
/// tenant one, skew gives tenant 0 twenty-five (~75% of rounds at the
/// default eight tenants) — hot enough that its home queue backlogs and
/// idle workers must steal, while the cold tenants keep every queue's
/// affinity meaningful.
fn sched_schedule(tenants: usize, skewed: bool) -> Vec<usize> {
    let mut schedule = Vec::new();
    for t in 0..tenants.max(1) {
        let weight = if skewed && t == 0 { 25 } else { 1 };
        schedule.extend(std::iter::repeat_n(t, weight));
    }
    schedule
}

/// Run one scheduler arm: an **in-memory** daemon with four workers,
/// `tenants` corpora warmed through the ordinary scheme client (capturing
/// one memo-served search per tenant), then a weighted round-robin of
/// pipelined bursts over bare sockets. Each burst interleaves plain
/// searches (even slots) with `SEARCH_MANY` batches of `batch_parts`
/// copies (odd slots), so every round exercises both the per-core run
/// queues and the spawn-free fan-out executor. Counters are snapshotted
/// on either side of the measured loop.
fn run_sched_arm(
    opts: &SchedOptions,
    name: &'static str,
    affinity: bool,
    skewed: bool,
) -> Result<SchedArm> {
    let depth = opts.depth.max(2);
    let tenants = opts.tenants.max(1);
    let config = ServerConfig {
        workers: 4,
        queue_depth: (depth * 4).max(64),
        affinity,
        data_dir: None,
        ..ServerConfig::default()
    };
    let daemon = Daemon::spawn(config).map_err(|e| Error::other(format!("spawn: {e}")))?;
    let addr = daemon.local_addr().to_string();

    // Warm every tenant and capture one memo-served search request each
    // (read-only, so the measured loop may replay it freely).
    let corpus_opts = BenchOptions {
        clients: 1,
        shards: 1,
        seed: opts.seed,
        keywords: opts.keywords,
        docs: opts.docs,
        duration: opts.duration,
    };
    let scheme = |e: sse_core::error::SseError| Error::other(e.to_string());
    let mut captured: Vec<Vec<u8>> = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let tenant = format!("sched-tenant-{t}");
        let transport = CaptureTransport {
            inner: TcpTransport::connect(&addr, &tenant, SchemeId::Scheme2)?,
            last_request: Vec::new(),
        };
        let key = MasterKey::from_seed(opts.seed ^ 0xAF1_u64.wrapping_add(t as u64));
        let mut c = Scheme2Client::new_seeded(
            transport,
            key,
            Scheme2Config::standard().with_chain_length(64),
            opts.seed.wrapping_add(t as u64),
        );
        c.store_batch(&corpus(&corpus_opts, t))
            .map_err(|e| Error::other(format!("sched store: {e}")))?;
        let kws: Vec<Keyword> = (0..opts.keywords.max(1)).map(keyword).collect();
        for kw in &kws {
            c.search(kw).map_err(scheme)?;
        }
        c.search(&kws[0]).map_err(scheme)?;
        let req = c.transport_mut().last_request.clone();
        drop(c);
        if req.is_empty() {
            return Err(Error::other("no search request captured"));
        }
        captured.push(req);
    }

    // One raw replay socket per tenant, each with a prebuilt burst:
    // plain searches on even slots, fan-out batches on odd slots.
    let mut sockets = Vec::with_capacity(tenants);
    let mut bursts = Vec::with_capacity(tenants);
    for (t, req) in captured.iter().enumerate() {
        let mut stream = TcpStream::connect(&addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.write_all(&encode_frame(
            &Hello {
                tenant: format!("sched-tenant-{t}"),
                scheme: SchemeId::Scheme2,
            }
            .encode(),
        ))?;
        let (status, seq) = read_raw_response(&mut stream)?;
        if (status, seq) != (STATUS_OK, HELLO_SEQ) {
            return Err(Error::other(format!("hello rejected: status {status}")));
        }
        let batch = proto::encode_batch(&vec![req.clone(); opts.batch_parts.max(1)]);
        let mut burst = Vec::new();
        for slot in 0..depth {
            let seq = 1 + u32::try_from(slot).unwrap_or(0);
            if slot % 2 == 0 {
                burst.extend_from_slice(&encode_frame(&proto::encode_request(KIND_DATA, seq, req)));
            } else {
                burst.extend_from_slice(&encode_frame(&proto::encode_request(
                    KIND_SEARCH_MANY,
                    seq,
                    &batch,
                )));
            }
        }
        sockets.push(stream);
        bursts.push(burst);
    }

    let schedule = sched_schedule(tenants, skewed);
    let mut admin = TcpTransport::connect(&addr, "sched-tenant-0", SchemeId::Scheme2)?;
    let before = admin.admin_stats()?;
    let spawns_before = allocmeter::thread_spawns();

    let mut rec = ArmRecorder::new();
    let mut ops: u64 = 0;
    let mut round = 0usize;
    let window = Instant::now();
    let deadline = window + opts.duration;
    while Instant::now() < deadline {
        let t = schedule[round % schedule.len()];
        round += 1;
        let started = Instant::now();
        sockets[t].write_all(&bursts[t])?;
        for _ in 0..depth {
            let (status, _seq) = read_raw_response(&mut sockets[t])?;
            if status != STATUS_OK {
                return Err(Error::other(format!(
                    "sched search failed: status {status}"
                )));
            }
        }
        rec.record(started.elapsed());
        ops += depth as u64;
    }
    let elapsed = window.elapsed();

    let thread_spawns = allocmeter::thread_spawns().saturating_sub(spawns_before);
    let after = admin.admin_stats()?;
    drop(admin);
    drop(sockets);
    daemon.shutdown();

    let lat = rec.finish();
    #[allow(clippy::cast_precision_loss)]
    let ops_per_sec = ops as f64 / elapsed.as_secs_f64().max(1e-9);
    Ok(SchedArm {
        name,
        affinity,
        skewed,
        ops,
        ops_per_sec,
        p50_ns: lat.p50_ns,
        p99_ns: lat.p99_ns,
        queue_p50_ns: after.queue_p50_ns,
        queue_p99_ns: after.queue_p99_ns,
        service_p50_ns: after.service_p50_ns,
        service_p99_ns: after.service_p99_ns,
        sched_routed: after.sched_routed.saturating_sub(before.sched_routed),
        sched_local_hits: after
            .sched_local_hits
            .saturating_sub(before.sched_local_hits),
        sched_stolen: after.sched_stolen.saturating_sub(before.sched_stolen),
        sched_spilled: after.sched_spilled.saturating_sub(before.sched_spilled),
        sched_queue_depth_hw: after.sched_queue_depth_hw,
        fanout_batches: after.fanout_batches.saturating_sub(before.fanout_batches),
        fanout_parts_helped: after
            .fanout_parts_helped
            .saturating_sub(before.fanout_parts_helped),
        thread_spawns,
    })
}

/// Run the scheduler benchmark: four arms on identically warmed
/// multi-tenant daemons — affinity routing vs the round-robin baseline,
/// each under uniform and skewed tenant weights. Thread spawns are
/// counted process-wide by `allocmeter` with no allocator requirement,
/// so the zero-spawn headline holds in any hosting binary.
///
/// # Errors
/// Daemon spawn, connection, scheme, or protocol errors from any arm.
pub fn run_sched_bench(opts: &SchedOptions) -> Result<SchedReport> {
    let affinity_uniform = run_sched_arm(opts, "affinity_uniform", true, false)?;
    let global_uniform = run_sched_arm(opts, "global_uniform", false, false)?;
    let affinity_skewed = run_sched_arm(opts, "affinity_skewed", true, true)?;
    let global_skewed = run_sched_arm(opts, "global_skewed", false, true)?;
    let ratio = |a: f64, b: f64| a / b.max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let skew_p99_ratio = affinity_skewed.p99_ns as f64 / (global_skewed.p99_ns as f64).max(1.0);
    #[allow(clippy::cast_precision_loss)]
    let skew_queue_p99_ratio =
        affinity_skewed.queue_p99_ns as f64 / (global_skewed.queue_p99_ns as f64).max(1.0);
    let uniform_throughput_ratio = ratio(affinity_uniform.ops_per_sec, global_uniform.ops_per_sec);
    let skew_throughput_ratio = ratio(affinity_skewed.ops_per_sec, global_skewed.ops_per_sec);
    let steals_under_skew = affinity_skewed.sched_stolen;
    let steady_state_thread_spawns = affinity_uniform.thread_spawns
        + global_uniform.thread_spawns
        + affinity_skewed.thread_spawns
        + global_skewed.thread_spawns;
    Ok(SchedReport {
        options: opts.clone(),
        affinity_uniform,
        global_uniform,
        affinity_skewed,
        global_skewed,
        uniform_throughput_ratio,
        skew_throughput_ratio,
        skew_p99_ratio,
        skew_queue_p99_ratio,
        steals_under_skew,
        steady_state_thread_spawns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(shards: usize, group_commit: bool) -> BenchArm {
        BenchArm {
            shards,
            group_commit,
            search_ops: 10,
            search_ops_per_sec: 100.0,
            update_ops: 5,
            update_ops_per_sec: 50.0,
            p50_ns: 1,
            p95_ns: 2,
            p99_ns: 3,
            shard_contention: vec![0, 4],
            busy_retries: 0,
            groups_committed: 2,
            ops_committed: 5,
            mean_group_size: 2.5,
            max_group_size: 3,
            fsyncs_per_op: 0.4,
            fsyncs_saved: 3,
            snapshot_swaps: 5,
            backend: BackendKind::Btree,
            checkpoints: 0,
            runs_flushed: 0,
            runs_live: 0,
            compactions: 0,
            bloom_checks: 0,
            bloom_skips: 0,
        }
    }

    #[test]
    fn report_json_has_required_fields() {
        let report = BenchReport {
            options: BenchOptions::default(),
            baseline: arm(1, true),
            sharded: arm(8, true),
            speedup_search_ops_per_sec: 2.5,
        };
        let json = report.to_json();
        for field in [
            "\"benchmark\"",
            "\"arms\"",
            "\"shards\"",
            "\"search_ops_per_sec\"",
            "\"p50_ns\"",
            "\"p95_ns\"",
            "\"p99_ns\"",
            "\"shard_contention\"",
            "\"speedup_search_ops_per_sec\"",
            "\"fsyncs_per_op\"",
            "\"mean_group_size\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn search_report_json_has_required_fields() {
        let sarm = |p50| SearchArm {
            ops: 32,
            mean_ns: p50,
            median_ns: p50,
            p50_ns: p50,
            p95_ns: p50 * 2,
            p99_ns: p50 * 3,
        };
        let report = SearchBenchReport {
            options: BenchOptions::default(),
            generations: SEARCH_GENERATIONS,
            cold: sarm(400_000),
            repeat: sarm(80_000),
            single_group: sarm(900_000),
            batch: sarm(200_000),
            repeat_speedup: 5.0,
            batch_speedup: 4.5,
            cache_hits: 544,
            cache_misses: 32,
            walk_steps_saved: 140_000,
        };
        let json = report.to_json();
        for field in [
            "\"benchmark\":\"sse-search-path\"",
            "\"arm\":\"cold\"",
            "\"arm\":\"repeat\"",
            "\"arm\":\"single_group\"",
            "\"arm\":\"batch\"",
            "\"generations\"",
            "\"batch_size\"",
            "\"mean_ns\"",
            "\"median_ns\"",
            "\"p50_ns\"",
            "\"p95_ns\"",
            "\"p99_ns\"",
            "\"repeat_speedup\"",
            "\"batch_speedup\"",
            "\"search_cache_hits\"",
            "\"search_cache_misses\"",
            "\"walk_steps_saved\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn group_commit_report_json_has_required_fields() {
        let report = GroupCommitReport {
            options: BenchOptions::default(),
            ungrouped: arm(2, false),
            grouped: arm(2, true),
            speedup_update_ops_per_sec: 3.1,
            search_p99_ratio: 0.8,
        };
        let json = report.to_json();
        for field in [
            "\"benchmark\":\"sse-group-commit\"",
            "\"group_commit\":false",
            "\"group_commit\":true",
            "\"update_ops_per_sec\"",
            "\"fsyncs_per_op\"",
            "\"mean_group_size\"",
            "\"max_group_size\"",
            "\"fsyncs_saved\"",
            "\"snapshot_swaps\"",
            "\"speedup_update_ops_per_sec\"",
            "\"search_p99_ratio\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn idle_report_json_has_required_fields() {
        let sarm = |p50| SearchArm {
            ops: 100,
            mean_ns: p50,
            median_ns: p50,
            p50_ns: p50,
            p95_ns: p50 * 2,
            p99_ns: p50 * 3,
        };
        let report = IdleBenchReport {
            options: IdleBenchOptions::default(),
            idle_conns_held: 10_000,
            rss_start_kb: 20_000,
            rss_half_kb: 60_000,
            rss_full_kb: 100_000,
            per_idle_conn_bytes_first_half: 8192.0,
            per_idle_conn_bytes_second_half: 8192.0,
            baseline: sarm(100_000),
            loaded: sarm(110_000),
            hot_p99_ratio: 1.1,
            hot_median_ratio: 1.1,
            conns_accepted: 10_002,
            conns_open_peak: 10_001,
            idle_reaped: 0,
            slow_reader_disconnects: 0,
            conns_rejected: 0,
            reactor_wakeups: 42,
            writes_deferred: 3,
            drain_ms: 250,
            drain_clean: true,
        };
        let json = report.to_json();
        for field in [
            "\"benchmark\":\"sse-reactor-idle\"",
            "\"idle_conns_target\":10000",
            "\"idle_conns_held\":10000",
            "\"rss_start_kb\"",
            "\"rss_half_kb\"",
            "\"rss_full_kb\"",
            "\"per_idle_conn_bytes_first_half\"",
            "\"per_idle_conn_bytes_second_half\"",
            "\"arm\":\"hot_baseline\"",
            "\"arm\":\"hot_under_idle_load\"",
            "\"hot_p99_ratio\"",
            "\"hot_median_ratio\"",
            "\"idle_reaped\":0",
            "\"slow_reader_disconnects\":0",
            "\"conns_rejected\":0",
            "\"drain_ms\":250",
            "\"drain_clean\":true",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn hotpath_report_json_has_required_fields() {
        let harm = |name, pool, depth, batch| HotpathArm {
            name,
            pool,
            depth,
            ops: 1000,
            ops_per_sec: 5000.0,
            allocs_per_op: if pool { 4.0 } else { 10.0 },
            alloc_bytes_per_op: 512.0,
            bytes_copied_per_op: if pool { 0.0 } else { 300.0 },
            pool_hits: 900,
            pool_misses: 100,
            pool_recycles: 990,
            pool_hit_rate: 0.9,
            writev_calls: 500,
            writev_frames: 1000,
            mean_writev_batch: batch,
            wakeups_coalesced: 42,
            p50_ns: 100_000,
            p99_ns: 300_000,
        };
        let report = HotpathReport {
            options: HotpathOptions::default(),
            legacy: harm("legacy", false, 1, 1.0),
            pooled: harm("pooled", true, 1, 1.0),
            pipelined: harm("pipelined", true, 16, 2.0),
            alloc_reduction: 0.6,
            copy_reduction: 1.0,
            p99_ratio: 0.95,
            pipelined_mean_writev_batch: 2.0,
        };
        let json = report.to_json();
        for field in [
            "\"benchmark\":\"sse-hotpath\"",
            "\"depth\":16",
            "\"arm\":\"legacy\"",
            "\"arm\":\"pooled\"",
            "\"arm\":\"pipelined\"",
            "\"pool\":false",
            "\"pool\":true",
            "\"allocs_per_op\"",
            "\"alloc_bytes_per_op\"",
            "\"bytes_copied_per_op\"",
            "\"pool_hits\"",
            "\"pool_misses\"",
            "\"pool_recycles\"",
            "\"pool_hit_rate\"",
            "\"writev_calls\"",
            "\"writev_frames\"",
            "\"mean_writev_batch\"",
            "\"wakeups_coalesced\"",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"alloc_reduction\":0.6000",
            "\"copy_reduction\":1.0000",
            "\"p99_ratio\":0.950",
            "\"pipelined_mean_writev_batch\":2.000",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn sched_report_json_has_required_fields() {
        let sarm = |name, affinity, skewed| SchedArm {
            name,
            affinity,
            skewed,
            ops: 4096,
            ops_per_sec: 20_000.0,
            p50_ns: 200_000,
            p99_ns: 900_000,
            queue_p50_ns: 3_000,
            queue_p99_ns: 40_000,
            service_p50_ns: 90_000,
            service_p99_ns: 400_000,
            sched_routed: 4096,
            sched_local_hits: 3900,
            sched_stolen: 120,
            sched_spilled: 6,
            sched_queue_depth_hw: 31,
            fanout_batches: 2048,
            fanout_parts_helped: 700,
            thread_spawns: 0,
        };
        let report = SchedReport {
            options: SchedOptions::default(),
            affinity_uniform: sarm("affinity_uniform", true, false),
            global_uniform: sarm("global_uniform", false, false),
            affinity_skewed: sarm("affinity_skewed", true, true),
            global_skewed: sarm("global_skewed", false, true),
            uniform_throughput_ratio: 1.02,
            skew_throughput_ratio: 1.1,
            skew_p99_ratio: 0.9,
            skew_queue_p99_ratio: 0.8,
            steals_under_skew: 120,
            steady_state_thread_spawns: 0,
        };
        let json = report.to_json();
        for field in [
            "\"benchmark\":\"sse-sched\"",
            "\"tenants\":8",
            "\"batch_parts\":4",
            "\"arm\":\"affinity_uniform\"",
            "\"arm\":\"global_uniform\"",
            "\"arm\":\"affinity_skewed\"",
            "\"arm\":\"global_skewed\"",
            "\"affinity\":true",
            "\"affinity\":false",
            "\"queue_p50_ns\"",
            "\"queue_p99_ns\"",
            "\"service_p50_ns\"",
            "\"service_p99_ns\"",
            "\"sched_routed\"",
            "\"sched_local_hits\"",
            "\"sched_stolen\"",
            "\"sched_spilled\"",
            "\"sched_queue_depth_hw\"",
            "\"fanout_batches\"",
            "\"fanout_parts_helped\"",
            "\"thread_spawns\":0",
            "\"uniform_throughput_ratio\":1.0200",
            "\"skew_throughput_ratio\":1.1000",
            "\"skew_p99_ratio\":0.900",
            "\"skew_queue_p99_ratio\":0.800",
            "\"steals_under_skew\":120",
            "\"steady_state_thread_spawns\":0",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }

        // The skewed schedule concentrates ~75% of rounds on tenant 0;
        // the uniform one is flat.
        let skew = sched_schedule(8, true);
        assert_eq!(skew.iter().filter(|&&t| t == 0).count(), 25);
        assert_eq!(skew.len(), 32);
        assert_eq!(sched_schedule(8, false), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn update_report_json_has_required_fields() {
        let mut lsm = arm(4, true);
        lsm.backend = BackendKind::Lsm;
        lsm.checkpoints = 6;
        lsm.runs_flushed = 24;
        lsm.runs_live = 4;
        lsm.compactions = 2;
        lsm.bloom_checks = 300;
        lsm.bloom_skips = 250;
        let report = UpdateBenchReport {
            options: BenchOptions::default(),
            preload_keywords: 4096,
            btree: arm(4, true),
            lsm,
            checkpoint_every: Duration::from_millis(250),
            lsm_vs_btree_update_ratio: 1.2,
        };
        let json = report.to_json();
        for field in [
            "\"benchmark\":\"sse-backend-update\"",
            "\"backend\":\"btree\"",
            "\"backend\":\"lsm\"",
            "\"checkpoint_every_ms\":250",
            "\"preload_keywords\":4096",
            "\"update_ops_per_sec\"",
            "\"checkpoints\":6",
            "\"runs_flushed\":24",
            "\"runs_live\":4",
            "\"compactions\":2",
            "\"bloom_checks\":300",
            "\"bloom_skips\":250",
            "\"lsm_vs_btree_update_ratio\":1.200",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
