//! Per-layer metrics, each computed where its layer's work is visible
//! from outside the daemon: the benchmark's own spans (client, transport),
//! `/proc/<pid>` (daemon process), `ADMIN_STATS` deltas (reactor, sched,
//! memo, commit, backend) and the in-process replay (handler, storage).

use crate::daemon::ProcSample;
use crate::replay::Replay;
use crate::stats::{ratio, Samples};
use crate::trace::{self_times, Span};
use sse_server::StatsSnapshot;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything the layer metrics are derived from, for one traced window.
pub struct LayerInputs<'a> {
    pub before: &'a StatsSnapshot,
    pub after: &'a StatsSnapshot,
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
    pub searches: u64,
    pub updates: u64,
    pub search_rounds: u64,
    pub search_bytes_down: u64,
    pub update_bytes_up: u64,
    pub busy_retries: u64,
    /// Client-side spans: op spans with transport round-trip children.
    pub spans: &'a [Span],
    pub replay: &'a Replay,
    /// Plaintext record bytes stored over the whole run.
    pub user_bytes: u64,
    /// Data-directory bytes after a clean shutdown (0 in memory).
    pub disk_bytes: u64,
    /// Open-loop sender lateness, when the workload has a schedule.
    pub lateness: Samples,
}

fn d(after: u64, before: u64) -> f64 {
    after.saturating_sub(before) as f64
}

pub fn compute(x: &LayerInputs) -> Vec<Metric> {
    let (a, b) = (x.after, x.before);
    let ops = (x.searches + x.updates) as f64;
    let requests = d(
        a.requests_ok + a.requests_busy + a.requests_err,
        b.requests_ok + b.requests_busy + b.requests_err,
    );
    let own = self_times(x.spans);
    let mut search_self = Samples::new();
    let mut update_self = Samples::new();
    let mut rtt = Samples::new();
    for (span, own) in x.spans.iter().zip(own) {
        match span.name {
            "op.search" => search_self.push(own),
            "op.update" => update_self.push(own),
            "transport.round_trip" => rtt.push(span.dur_ns()),
            _ => {}
        }
    }
    let mut handler_search = x
        .replay
        .per_op
        .get("op.search")
        .cloned()
        .unwrap_or_default();
    let mut handler_update = x
        .replay
        .per_op
        .get("op.update")
        .cloned()
        .unwrap_or_default();
    let mut search_many = x.replay.search_many.clone();
    let mut overhead = x.replay.overhead.clone();
    let mut fsync = x.replay.fsync.clone();
    let mut lateness = x.lateness.clone();
    let cache = d(a.search_cache_hits, b.search_cache_hits)
        + d(a.search_cache_misses, b.search_cache_misses);
    let searches = x.searches as f64;
    let updates = x.updates as f64;
    let user = x.user_bytes as f64;
    vec![
        metric(
            "client.search_self_us_p50",
            "us",
            search_self.quantile_us(0.5),
        ),
        metric(
            "client.update_self_us_p50",
            "us",
            update_self.quantile_us(0.5),
        ),
        metric(
            "client.rounds_per_search",
            "count",
            ratio(x.search_rounds as f64, searches),
        ),
        metric(
            "client.bytes_up_per_update",
            "bytes",
            ratio(x.update_bytes_up as f64, updates),
        ),
        metric(
            "client.bytes_down_per_search",
            "bytes",
            ratio(x.search_bytes_down as f64, searches),
        ),
        metric("transport.rtt_us_p50", "us", rtt.quantile_us(0.5)),
        metric("transport.rtt_us_p99", "us", rtt.quantile_us(0.99)),
        metric(
            "transport.busy_retries_per_op",
            "count",
            ratio(x.busy_retries as f64, ops),
        ),
        metric(
            "openloop.send_lateness_us_p99",
            "us",
            lateness.quantile_us(0.99),
        ),
        metric(
            "daemon.cpu_us_per_op",
            "us",
            ratio(d(x.proc_after.cpu_ns, x.proc_before.cpu_ns) / 1e3, ops),
        ),
        metric(
            "daemon.syscalls_per_op",
            "count",
            ratio(d(x.proc_after.rw_syscalls, x.proc_before.rw_syscalls), ops),
        ),
        metric(
            "reactor.wakeups_per_request",
            "count",
            ratio(d(a.reactor_wakeups, b.reactor_wakeups), requests),
        ),
        metric(
            "reactor.writev_frames_per_call",
            "count",
            ratio(
                d(a.writev_frames, b.writev_frames),
                d(a.writev_calls, b.writev_calls),
            ),
        ),
        metric(
            "reactor.pool_hit_ratio",
            "ratio",
            ratio(
                d(a.pool_hits, b.pool_hits),
                d(a.pool_hits, b.pool_hits) + d(a.pool_misses, b.pool_misses),
            ),
        ),
        metric(
            "reactor.bytes_copied_per_request",
            "bytes",
            ratio(d(a.bytes_copied, b.bytes_copied), requests),
        ),
        // The daemon's queue-wait quantiles are 2x-wide histogram bucket
        // bounds over its lifetime, not exact order statistics.
        metric(
            "sched.queue_wait_ns_p50",
            "ns_bucket",
            a.queue_p50_ns as f64,
        ),
        metric(
            "sched.queue_wait_ns_p99",
            "ns_bucket",
            a.queue_p99_ns as f64,
        ),
        metric(
            "sched.local_hit_ratio",
            "ratio",
            ratio(
                d(a.sched_local_hits, b.sched_local_hits),
                d(a.sched_routed, b.sched_routed),
            ),
        ),
        metric(
            "sched.stolen_per_request",
            "count",
            ratio(d(a.sched_stolen, b.sched_stolen), requests),
        ),
        metric(
            "sched.spilled",
            "count",
            d(a.sched_spilled, b.sched_spilled),
        ),
        metric(
            "sched.fanout_parts_helped_per_batch",
            "count",
            ratio(
                d(a.fanout_parts_helped, b.fanout_parts_helped),
                d(a.fanout_batches, b.fanout_batches),
            ),
        ),
        metric(
            "handler.search_us_p50",
            "us",
            handler_search.quantile_us(0.5),
        ),
        metric(
            "handler.search_us_p99",
            "us",
            handler_search.quantile_us(0.99),
        ),
        metric(
            "handler.update_us_p50",
            "us",
            handler_update.quantile_us(0.5),
        ),
        metric(
            "handler.update_us_p99",
            "us",
            handler_update.quantile_us(0.99),
        ),
        metric(
            "handler.search_many_us_p50",
            "us",
            search_many.quantile_us(0.5),
        ),
        metric("stack.overhead_us_p50", "us", overhead.quantile_us(0.5)),
        metric(
            "memo.hit_ratio",
            "ratio",
            ratio(d(a.search_cache_hits, b.search_cache_hits), cache),
        ),
        metric(
            "memo.walk_steps_saved_per_search",
            "count",
            ratio(d(a.walk_steps_saved, b.walk_steps_saved), searches),
        ),
        metric(
            "commit.mean_group_size",
            "count",
            ratio(
                d(a.ops_committed, b.ops_committed),
                d(a.groups_committed, b.groups_committed),
            ),
        ),
        metric(
            "commit.fsyncs_per_update",
            "count",
            ratio(d(a.groups_committed, b.groups_committed), updates),
        ),
        metric(
            "commit.snapshot_swaps_per_update",
            "count",
            ratio(d(a.snapshot_swaps, b.snapshot_swaps), updates),
        ),
        metric("storage.fsync_us_p50", "us", fsync.quantile_us(0.5)),
        metric("storage.fsync_us_p99", "us", fsync.quantile_us(0.99)),
        metric(
            "storage.write_amp",
            "ratio",
            ratio(x.replay.bytes_written as f64, user),
        ),
        metric(
            "storage.disk_bytes_per_user_byte",
            "ratio",
            ratio(x.disk_bytes as f64, user),
        ),
        metric(
            "backend.run_reads_per_search",
            "count",
            ratio(d(a.backend_run_reads, b.backend_run_reads), searches),
        ),
        metric(
            "backend.bloom_skip_ratio",
            "ratio",
            ratio(
                d(a.backend_bloom_skips, b.backend_bloom_skips),
                d(a.backend_bloom_checks, b.backend_bloom_checks),
            ),
        ),
        // Flushes and compactions happen at checkpoints, mostly outside a
        // short window: these two are daemon-lifetime counts.
        metric(
            "backend.runs_flushed",
            "count",
            a.backend_runs_flushed as f64,
        ),
        metric("backend.compactions", "count", a.backend_compactions as f64),
    ]
}
