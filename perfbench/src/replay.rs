//! The handler and storage layers, measured by replaying the recorded
//! request stream — in its global send order — into an in-process
//! `TenantRegistry` through the same entry points the daemon's workers
//! call (`handle_shared`, `apply_batch`, `search_batch`). Durable
//! workloads replay through a timing `Vfs` passed to
//! `TenantRegistry::durable`.

use crate::stats::Samples;
use crate::tap::Recorded;
use crate::trace::{Span, TraceLog, Tracer};
use sse_server::proto::{KIND_SEARCH_MANY, KIND_UPDATE_MANY};
use sse_server::tenant::{TenantParams, TenantRegistry};
use sse_storage::{RealVfs, Vfs, VfsFile};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Storage counters gathered by [`TimingVfs`].
#[derive(Default)]
pub struct VfsCounters {
    pub fsync: Mutex<Samples>,
    pub bytes_written: AtomicU64,
}

/// A `Vfs` that forwards to the real filesystem, timing each call as a
/// span under the handler call that caused it.
pub struct TimingVfs {
    inner: Arc<dyn Vfs>,
    tracer: Tracer,
    counters: Arc<VfsCounters>,
}

struct TimingFile {
    inner: Box<dyn VfsFile>,
    tracer: Tracer,
    counters: Arc<VfsCounters>,
}

fn timed<T>(tracer: &Tracer, name: &'static str, call: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = call();
    let end = Instant::now();
    tracer
        .lock()
        .expect("trace log poisoned")
        .child(name, start, end);
    (out, end.duration_since(start).as_nanos() as u64)
}

impl VfsFile for TimingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counters
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        timed(&self.tracer, "vfs.write", || self.inner.write_all(buf)).0
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let (out, ns) = timed(&self.tracer, "vfs.fsync", || self.inner.sync_data());
        self.counters.fsync.lock().expect("poisoned").push(ns);
        out
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }
}

impl TimingVfs {
    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        file.map(|inner| {
            Box::new(TimingFile {
                inner,
                tracer: self.tracer.clone(),
                counters: self.counters.clone(),
            }) as Box<dyn VfsFile>
        })
    }
}

impl Vfs for TimingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        timed(&self.tracer, "vfs.read", || self.inner.read(path)).0
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.inner.file_len(path)
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.open_write(path))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.inner.create(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let (out, ns) = timed(&self.tracer, "vfs.fsync_dir", || self.inner.sync_dir(path));
        self.counters.fsync.lock().expect("poisoned").push(ns);
        out
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        timed(&self.tracer, "vfs.read", || {
            self.inner.read_range(path, offset, len)
        })
        .0
    }
}

/// Handler-layer results of one replay.
pub struct Replay {
    /// Handler ns per user op, keyed by op name (`op.search`, ...).
    pub per_op: BTreeMap<&'static str, Samples>,
    /// Handler ns per `SEARCH_MANY` envelope.
    pub search_many: Samples,
    /// Round trip minus handler time, per request.
    pub overhead: Samples,
    pub fsync: Samples,
    pub bytes_written: u64,
    pub spans: Vec<Span>,
}

/// Replay `requests` (any order; sorted here by send order) into a fresh
/// registry: durable under `dir` when given, in memory otherwise.
pub fn replay(
    mut requests: Vec<Recorded>,
    params: TenantParams,
    dir: Option<&Path>,
    epoch: Instant,
) -> Result<Replay, String> {
    requests.sort_by_key(|r| r.seq);
    let tracer = TraceLog::tracer(true, epoch, 0);
    let counters = Arc::new(VfsCounters::default());
    let registry = match dir {
        Some(dir) => {
            let vfs = TimingVfs {
                inner: RealVfs::arc(),
                tracer: tracer.clone(),
                counters: counters.clone(),
            };
            TenantRegistry::durable(params, dir.to_path_buf(), Arc::new(vfs))
        }
        None => TenantRegistry::new(params),
    };
    let mut per_op_ns: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
    let mut search_many = Samples::new();
    let mut overhead = Samples::new();
    for rec in &requests {
        let db = registry
            .get_or_create(&rec.tenant, rec.scheme)
            .map_err(|e| format!("replay open: {e}"))?;
        let parts: Vec<&[u8]> = rec.parts.iter().map(Vec::as_slice).collect();
        let name = match rec.kind {
            KIND_UPDATE_MANY => "handler.apply_batch",
            KIND_SEARCH_MANY => "handler.search_batch",
            _ => "handler.handle_shared",
        };
        let start = Instant::now();
        tracer
            .lock()
            .expect("trace log poisoned")
            .begin_with(name, rec.op, start);
        let response = match rec.kind {
            KIND_UPDATE_MANY => db.apply_batch(&parts),
            KIND_SEARCH_MANY => db.search_batch(&parts),
            _ => db.handle_shared(parts[0]),
        };
        let end = Instant::now();
        tracer.lock().expect("trace log poisoned").end_op(end);
        std::hint::black_box(response);
        let ns = end.duration_since(start).as_nanos() as u64;
        if rec.op_name.is_empty() {
            continue; // set-up traffic: replayed for state, not measured
        }
        *per_op_ns.entry((rec.op, rec.op_name)).or_default() += ns;
        if rec.kind == KIND_SEARCH_MANY {
            search_many.push(ns);
        }
        overhead.push(rec.rtt_ns.saturating_sub(ns));
    }
    if dir.is_some() {
        registry
            .checkpoint_all()
            .map_err(|e| format!("replay checkpoint: {e}"))?;
    }
    let mut per_op: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for ((_, name), ns) in per_op_ns {
        per_op.entry(name).or_default().push(ns);
    }
    let fsync = counters.fsync.lock().expect("poisoned").clone();
    let spans = tracer.lock().expect("trace log poisoned").take();
    Ok(Replay {
        per_op,
        search_many,
        overhead,
        fsync,
        bytes_written: counters.bytes_written.load(Ordering::Relaxed),
        spans,
    })
}
