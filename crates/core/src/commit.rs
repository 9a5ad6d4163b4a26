//! Per-shard group commit: amortize one fsync across concurrent mutations.
//!
//! PR 3's serving benchmark showed per-mutation journal fsyncs dominate
//! throughput — sharding overlaps fsyncs but never amortizes them. The
//! [`GroupCommitter`] fixes that: concurrent mutations *stage* their
//! already-seq-stamped journal records into a pending group, and the first
//! waiter to find work becomes the **leader**, writing the whole group with
//! one vectored [`sse_storage::wal::Wal::append_batch`] call (one `write`
//! syscall + one `sync_data`). Followers sleep on a condvar until the
//! leader advances `durable_seq` past their record.
//!
//! The durability contract is unchanged from per-op journaling: a mutation
//! is acknowledged only after [`GroupCommitter::wait_durable`] returns
//! `Ok`, i.e. strictly after the fsync that covered its record. Sequence
//! numbers are assigned at stage time under the committer lock, so journal
//! order, group order, and apply order are all the same order, and
//! cross-shard batch ids can embed the coordinator's seq before anything
//! hits disk.
//!
//! Failure model: if a group's write or fsync fails, the committer is
//! **poisoned** — every record in that group and everything staged after
//! it reports an error, and no further staging is accepted. This mirrors a
//! crash (the only source of sync failures in this workspace is injected
//! faults, which kill all subsequent I/O anyway): the journal's on-disk
//! state is an acked prefix plus at most one in-doubt unacked group.

use crate::error::{Result, SseError};
use crate::journal::IndexJournal;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};

/// Pipeline counters shared by every shard's committer in a server.
///
/// Consumers derive the headline ratios: mean group size is
/// `ops_committed / groups_committed` and fsyncs-per-op is its inverse
/// (`groups_committed / ops_committed`), since each group costs exactly
/// one fsync.
#[derive(Debug, Default)]
pub struct CommitStats {
    /// Groups flushed (each = one vectored write + one fsync).
    pub groups_committed: AtomicU64,
    /// Mutation records flushed across all groups.
    pub ops_committed: AtomicU64,
    /// Largest single group flushed.
    pub max_group: AtomicU64,
    /// Fsyncs avoided versus one-per-op journaling (`group_size - 1` per group).
    pub fsyncs_saved: AtomicU64,
    /// Immutable search-snapshot publications (one per shard apply).
    pub snapshot_swaps: AtomicU64,
}

/// A point-in-time copy of [`CommitStats`], cheap to aggregate and ship.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitCounters {
    /// Groups flushed (each = one fsync).
    pub groups_committed: u64,
    /// Mutation records flushed across all groups.
    pub ops_committed: u64,
    /// Largest single group flushed.
    pub max_group: u64,
    /// Fsyncs avoided versus one-per-op journaling.
    pub fsyncs_saved: u64,
    /// Immutable search-snapshot publications.
    pub snapshot_swaps: u64,
}

impl CommitStats {
    /// Record one flushed group of `n` records.
    pub fn note_group(&self, n: u64) {
        self.groups_committed.fetch_add(1, Ordering::Relaxed);
        self.ops_committed.fetch_add(n, Ordering::Relaxed);
        self.max_group.fetch_max(n, Ordering::Relaxed);
        self.fsyncs_saved
            .fetch_add(n.saturating_sub(1), Ordering::Relaxed);
    }

    /// Record one search-snapshot publication.
    pub fn note_swap(&self) {
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    #[must_use]
    pub fn counters(&self) -> CommitCounters {
        CommitCounters {
            groups_committed: self.groups_committed.load(Ordering::Relaxed),
            ops_committed: self.ops_committed.load(Ordering::Relaxed),
            max_group: self.max_group.load(Ordering::Relaxed),
            fsyncs_saved: self.fsyncs_saved.load(Ordering::Relaxed),
            snapshot_swaps: self.snapshot_swaps.load(Ordering::Relaxed),
        }
    }
}

impl CommitCounters {
    /// Merge another snapshot into this one (`max_group` takes the max,
    /// everything else sums) — used to aggregate across tenants.
    pub fn merge(&mut self, other: &CommitCounters) {
        self.groups_committed += other.groups_committed;
        self.ops_committed += other.ops_committed;
        self.max_group = self.max_group.max(other.max_group);
        self.fsyncs_saved += other.fsyncs_saved;
        self.snapshot_swaps += other.snapshot_swaps;
    }

    /// Fsyncs per committed op (1.0 = no grouping; NaN-free: 0 when idle).
    #[must_use]
    pub fn fsyncs_per_op(&self) -> f64 {
        if self.ops_committed == 0 {
            0.0
        } else {
            self.groups_committed as f64 / self.ops_committed as f64
        }
    }

    /// Mean records per group (0 when idle).
    #[must_use]
    pub fn mean_group_size(&self) -> f64 {
        if self.groups_committed == 0 {
            0.0
        } else {
            self.ops_committed as f64 / self.groups_committed as f64
        }
    }
}

struct CommitState {
    /// The shard's journal; `None` only while a leader has it checked out
    /// for a flush (durable mode) or permanently in in-memory mode.
    journal: Option<IndexJournal>,
    /// Seq the next `stage` call will assign.
    next_seq: u64,
    /// Staged, stamped records awaiting flush, in seq order:
    /// `(seq, [seq u64 LE][request bytes])`.
    pending: VecDeque<(u64, Vec<u8>)>,
    /// True while a leader is flushing outside the lock.
    writing: bool,
    /// Highest seq covered by a completed fsync.
    durable_seq: u64,
    /// Set when a group flush failed: the shard journal is dead, every
    /// staged-or-later mutation errors out.
    poisoned: Option<String>,
}

/// A per-shard journal wrapper that batches concurrent appends into
/// single-fsync groups. See the module docs for the full protocol.
pub struct GroupCommitter {
    state: Mutex<CommitState>,
    cv: Condvar,
    /// When false, the leader flushes exactly one record per group —
    /// byte-identical journal, one fsync per op. This is the benchmark's
    /// A/B switch, not a fast path.
    group_commit: bool,
    /// In-memory servers journal nothing: staging is immediately durable.
    in_memory: bool,
    stats: Arc<CommitStats>,
}

impl GroupCommitter {
    /// Wrap a shard journal opened by the server. `last_seq` must be the
    /// journal's `next_seq - 1` (i.e. everything already on disk is
    /// trivially durable).
    #[must_use]
    pub fn new_durable(journal: IndexJournal, group_commit: bool, stats: Arc<CommitStats>) -> Self {
        let next_seq = journal.next_seq();
        GroupCommitter {
            state: Mutex::new(CommitState {
                journal: Some(journal),
                next_seq,
                pending: VecDeque::new(),
                writing: false,
                durable_seq: next_seq - 1,
                poisoned: None,
            }),
            cv: Condvar::new(),
            group_commit,
            in_memory: false,
            stats,
        }
    }

    /// A committer with no backing journal: sequence numbers still order
    /// applies, but staging is immediately durable.
    #[must_use]
    pub fn new_in_memory(stats: Arc<CommitStats>) -> Self {
        GroupCommitter {
            state: Mutex::new(CommitState {
                journal: None,
                next_seq: 1,
                pending: VecDeque::new(),
                writing: false,
                durable_seq: 0,
                poisoned: None,
            }),
            cv: Condvar::new(),
            group_commit: true,
            in_memory: true,
            stats,
        }
    }

    /// Stage one request, assigning and returning its sequence number.
    /// Durability comes later, from [`GroupCommitter::wait_durable`].
    ///
    /// # Errors
    /// [`SseError::Storage`]-wrapped I/O error if the shard journal was
    /// poisoned by an earlier failed group.
    pub fn stage(&self, request: &[u8]) -> Result<u64> {
        self.lock().stage(request)
    }

    /// Lock the stage queue. Cross-shard batches hold the [`StageGuard`]s
    /// of every affected shard (in ascending shard order) so all slices —
    /// whose batch id embeds the coordinator's seq — stage atomically.
    #[must_use]
    pub fn lock(&self) -> StageGuard<'_> {
        StageGuard {
            state: self.state.lock(),
            committer: self,
        }
    }

    /// Block until `seq` is covered by a completed fsync (or is trivially
    /// durable in in-memory mode). The calling thread may be drafted as
    /// the group leader and perform the flush itself.
    ///
    /// # Errors
    /// [`SseError::Storage`] if the group containing `seq` (or an earlier
    /// group) failed to flush — the record is *not* durable and the caller
    /// must not apply or ack it.
    pub fn wait_durable(&self, seq: u64) -> Result<()> {
        let mut state = self.state.lock();
        loop {
            if state.durable_seq >= seq {
                return Ok(());
            }
            if let Some(msg) = &state.poisoned {
                return Err(journal_dead(msg));
            }
            if !state.writing && !state.pending.is_empty() {
                // Become the leader: take the whole pending group (or just
                // the front record with grouping disabled), flush it
                // outside the lock, then report back.
                state.writing = true;
                let group: Vec<(u64, Vec<u8>)> = if self.group_commit {
                    state.pending.drain(..).collect()
                } else {
                    let front = state.pending.pop_front().expect("pending non-empty");
                    vec![front]
                };
                let mut journal = state
                    .journal
                    .take()
                    .expect("journal present when not writing");
                drop(state);

                let first_seq = group[0].0;
                let last_seq = group[group.len() - 1].0;
                let records: Vec<&[u8]> = group.iter().map(|(_, r)| r.as_slice()).collect();
                let outcome = journal.append_stamped_batch(&records, first_seq);

                state = self.state.lock();
                state.journal = Some(journal);
                state.writing = false;
                match outcome {
                    Ok(()) => {
                        state.durable_seq = last_seq;
                        self.stats.note_group(group.len() as u64);
                    }
                    Err(err) => {
                        state.poisoned = Some(err.to_string());
                    }
                }
                self.cv.notify_all();
                continue;
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Highest seq assigned so far (the `last_op_seq` a checkpoint taken
    /// under full quiescence should record).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.state.lock().next_seq - 1
    }

    /// Truncate the journal after a checkpoint. Only call under full
    /// quiescence (no staged-but-unflushed records); seqs keep increasing.
    ///
    /// # Errors
    /// [`SseError::Storage`] if the journal is poisoned, mid-flush, has
    /// staged records, or the truncation itself fails.
    pub fn reset_journal(&self) -> Result<()> {
        let mut state = self.state.lock();
        if let Some(msg) = &state.poisoned {
            return Err(journal_dead(msg));
        }
        if state.writing || !state.pending.is_empty() {
            return Err(SseError::Storage(sse_storage::StorageError::Io(
                std::io::Error::other("journal reset while mutations are in flight"),
            )));
        }
        if let Some(journal) = state.journal.as_mut() {
            journal.reset()?;
        }
        Ok(())
    }

    /// True when this committer's journal was disabled by a failed group
    /// commit (the scrub checks this to decide whether a repair is due).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.state.lock().poisoned.is_some()
    }

    /// Replace the backing journal wholesale — the scrub's repair path.
    ///
    /// The caller must hold the server fully quiesced (no mutation may be
    /// staging or waiting: every in-flight pipeline holds the server's
    /// index-meta barrier for reading, which the repair write-holds) and must
    /// have re-persisted the shard's applied state so the fresh journal's
    /// contents are redundant. Clears any poison, discards staged records
    /// of failed groups (they were never acked and are not on disk in the
    /// fresh journal), installs `journal`, and resets the seq counters to
    /// the journal's own `next_seq` — per-shard applies require dense
    /// seqs, so the failed groups' seq numbers are reclaimed.
    ///
    /// No-op (Ok) for in-memory committers: nothing to repair.
    pub fn replace_journal(&self, journal: IndexJournal) {
        if self.in_memory {
            return;
        }
        let next_seq = journal.next_seq();
        let mut state = self.state.lock();
        debug_assert!(!state.writing, "replace_journal requires quiescence");
        state.journal = Some(journal);
        state.pending.clear();
        state.poisoned = None;
        state.next_seq = next_seq;
        state.durable_seq = next_seq - 1;
        drop(state);
        self.cv.notify_all();
    }

    /// The shared pipeline counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<CommitStats> {
        &self.stats
    }
}

/// Exclusive access to a committer's stage queue; see
/// [`GroupCommitter::lock`].
pub struct StageGuard<'a> {
    state: MutexGuard<'a, CommitState>,
    committer: &'a GroupCommitter,
}

impl StageGuard<'_> {
    /// The seq the next [`StageGuard::stage`] call will assign.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.state.next_seq
    }

    /// True when this shard's journal was disabled by a failed group
    /// commit. Stable while the guard is held: poisoning requires the
    /// state lock. Cross-shard coordinators check every affected shard
    /// before staging anything, so a dead shard never strands a
    /// half-staged batch.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.state.poisoned.is_some()
    }

    /// Stage one request, assigning and returning its sequence number.
    ///
    /// # Errors
    /// [`SseError::Storage`] if the shard journal is poisoned.
    pub fn stage(&mut self, request: &[u8]) -> Result<u64> {
        if let Some(msg) = &self.state.poisoned {
            return Err(journal_dead(msg));
        }
        let seq = self.state.next_seq;
        self.state.next_seq = seq + 1;
        if self.committer.in_memory {
            self.state.durable_seq = seq;
        } else {
            let mut record = Vec::with_capacity(8 + request.len());
            record.extend_from_slice(&seq.to_le_bytes());
            record.extend_from_slice(request);
            self.state.pending.push_back((seq, record));
        }
        Ok(seq)
    }
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        // Wake sleepers so one of them can lead the newly staged group.
        if !self.state.pending.is_empty() {
            self.committer.cv.notify_all();
        }
    }
}

fn journal_dead(msg: &str) -> SseError {
    SseError::Storage(sse_storage::StorageError::Io(std::io::Error::other(
        format!("shard journal disabled by failed group commit: {msg}"),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sse_storage::{FaultVfs, RealVfs};
    use std::path::{Path, PathBuf};
    use std::sync::Barrier;

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sse-commit-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard.wal")
    }

    fn durable_committer(path: &Path, group_commit: bool) -> GroupCommitter {
        let (journal, _) = IndexJournal::open_with_vfs(RealVfs::arc(), path, true, 0).unwrap();
        GroupCommitter::new_durable(journal, group_commit, Arc::new(CommitStats::default()))
    }

    #[test]
    fn in_memory_staging_is_immediately_durable() {
        let c = GroupCommitter::new_in_memory(Arc::new(CommitStats::default()));
        let s1 = c.stage(b"a").unwrap();
        let s2 = c.stage(b"b").unwrap();
        assert_eq!((s1, s2), (1, 2));
        c.wait_durable(s2).unwrap();
        assert_eq!(c.stats().counters().groups_committed, 0);
    }

    #[test]
    fn single_writer_round_trips_through_the_journal() {
        let path = temp_journal("single");
        let c = durable_committer(&path, true);
        for i in 0..5u64 {
            let seq = c.stage(format!("op-{i}").as_bytes()).unwrap();
            assert_eq!(seq, i + 1);
            c.wait_durable(seq).unwrap();
        }
        let counters = c.stats().counters();
        assert_eq!(counters.ops_committed, 5);
        // Sequential writers can't group: every op is its own flush.
        assert_eq!(counters.groups_committed, 5);
        drop(c);

        let (_, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        let want: Vec<Vec<u8>> = (0..5).map(|i| format!("op-{i}").into_bytes()).collect();
        assert_eq!(rec.replay, want);
    }

    #[test]
    fn concurrent_writers_form_groups_and_all_become_durable() {
        let path = temp_journal("group");
        let c = Arc::new(durable_committer(&path, true));
        let writers = 8;
        let ops_per_writer = 20;
        let barrier = Arc::new(Barrier::new(writers));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let c = Arc::clone(&c);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..ops_per_writer {
                        let seq = c.stage(format!("w{w}-{i}").as_bytes()).unwrap();
                        c.wait_durable(seq).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (writers * ops_per_writer) as u64;
        let counters = c.stats().counters();
        assert_eq!(counters.ops_committed, total);
        assert!(
            counters.groups_committed <= total,
            "groups must never exceed ops"
        );
        assert_eq!(
            counters.fsyncs_saved,
            total - counters.groups_committed,
            "every record beyond the first in a group saves one fsync"
        );
        drop(c);

        // Every staged record is on disk exactly once, in seq order.
        let (journal, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        assert_eq!(rec.replay.len() as u64, total);
        assert_eq!(journal.next_seq(), total + 1);
    }

    #[test]
    fn grouping_disabled_flushes_one_record_per_fsync() {
        let path = temp_journal("ungrouped");
        let c = Arc::new(durable_committer(&path, false));
        let writers = 4;
        let ops_per_writer = 10;
        let barrier = Arc::new(Barrier::new(writers));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let c = Arc::clone(&c);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..ops_per_writer {
                        let seq = c.stage(format!("u{w}-{i}").as_bytes()).unwrap();
                        c.wait_durable(seq).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (writers * ops_per_writer) as u64;
        let counters = c.stats().counters();
        assert_eq!(counters.ops_committed, total);
        assert_eq!(counters.groups_committed, total, "no grouping allowed");
        assert_eq!(counters.max_group, 1);
        assert_eq!(counters.fsyncs_saved, 0);
    }

    #[test]
    fn forced_group_via_stage_guard_costs_one_fsync() {
        let path = temp_journal("forced");
        let c = durable_committer(&path, true);
        let mut guard = c.lock();
        let first = guard.next_seq();
        let s1 = guard.stage(b"batch-a").unwrap();
        let s2 = guard.stage(b"batch-b").unwrap();
        let s3 = guard.stage(b"batch-c").unwrap();
        drop(guard);
        assert_eq!((s1, s2, s3), (first, first + 1, first + 2));
        c.wait_durable(s3).unwrap();
        let counters = c.stats().counters();
        assert_eq!(counters.groups_committed, 1, "one flush for the group");
        assert_eq!(counters.ops_committed, 3);
        assert_eq!(counters.max_group, 3);
        assert_eq!(counters.fsyncs_saved, 2);
    }

    #[test]
    fn failed_flush_poisons_the_committer() {
        let path = temp_journal("poison");
        // First sync call dies (and all I/O after it).
        let vfs: Arc<dyn sse_storage::Vfs> = Arc::new(FaultVfs::crashing_at_sync(7, 1));
        let (journal, _) = IndexJournal::open_with_vfs(vfs, &path, true, 0).unwrap();
        let c = GroupCommitter::new_durable(journal, true, Arc::new(CommitStats::default()));
        let seq = c.stage(b"doomed").unwrap();
        let err = c.wait_durable(seq).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // Everything afterwards errors fast.
        let err2 = c.stage(b"after").unwrap_err();
        assert!(err2.to_string().contains("disabled"), "{err2}");
        let err3 = c.wait_durable(seq).unwrap_err();
        assert!(err3.to_string().contains("disabled"), "{err3}");
        assert!(c.reset_journal().is_err());
        assert_eq!(c.stats().counters().groups_committed, 0);
    }

    #[test]
    fn replace_journal_clears_poison_and_resumes_dense_seqs() {
        let path = temp_journal("replace");
        let vfs: Arc<dyn sse_storage::Vfs> = Arc::new(FaultVfs::crashing_at_sync(7, 1));
        let (journal, _) = IndexJournal::open_with_vfs(vfs, &path, true, 0).unwrap();
        let c = GroupCommitter::new_durable(journal, true, Arc::new(CommitStats::default()));
        let seq = c.stage(b"doomed").unwrap();
        assert!(c.wait_durable(seq).is_err());
        assert!(c.is_poisoned());

        // Repair: re-open a fresh journal (as if the applied state were
        // re-persisted with snapshot_seq = applied_seq) and install it.
        let _ = std::fs::remove_file(&path);
        let (fresh, _) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        c.replace_journal(fresh);
        assert!(!c.is_poisoned());
        // The failed seq is reclaimed: staging resumes densely from 1.
        let seq2 = c.stage(b"after repair").unwrap();
        assert_eq!(seq2, 1);
        c.wait_durable(seq2).unwrap();
        drop(c);
        let (_, rec) = IndexJournal::open_with_vfs(RealVfs::arc(), &path, true, 0).unwrap();
        assert_eq!(rec.replay, vec![b"after repair".to_vec()]);
    }

    #[test]
    fn reset_journal_rejects_inflight_records() {
        let path = temp_journal("reset-inflight");
        let c = durable_committer(&path, true);
        let _seq = c.stage(b"staged-not-flushed").unwrap();
        let err = c.reset_journal().unwrap_err();
        assert!(err.to_string().contains("in flight"), "{err}");
    }
}
