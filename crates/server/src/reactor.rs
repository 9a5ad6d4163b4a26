//! Readiness-driven non-blocking event loop for the daemon's accept/IO
//! layer.
//!
//! One reactor thread owns the listener, a wakeup pipe, and every client
//! socket. Sockets are nonblocking; the reactor parks in `epoll_wait` and
//! only touches a connection when the kernel reports it ready. Frames are
//! assembled incrementally by [`StreamingDecoder`] — a connection that is
//! idle at a frame boundary holds **zero** buffered bytes, which is what
//! lets one thread hold tens of thousands of idle tenants at a flat
//! per-connection cost (the thread-per-connection architecture paid a
//! stack per idle socket).
//!
//! ```text
//!              epoll_wait ──▶ reactor thread
//!   listener ready ─▶ accept loop (cap: max_conns)
//!   socket readable ─▶ StreamingDecoder ─▶ frames ─▶ try_send job ─▶ workers
//!   socket writable ─▶ drain bounded write queue, disarm EPOLLOUT
//!   wake pipe ready ─▶ drain CompletionQueue (worker responses)
//! ```
//!
//! **Write backpressure.** Responses go through a bounded per-connection
//! write queue. A response that doesn't fit in the kernel send buffer is
//! queued and `EPOLLOUT` armed; a reader that never drains hits the queue
//! bound and is disconnected (`slow_reader_disconnects`) — the daemon's
//! memory stays bounded no matter how slow the peer is. `BUSY` remains
//! the job-queue backpressure signal; there is no BUSY-on-accept.
//!
//! **Workers.** CPU-bound scheme work still runs on the worker pool. The
//! reactor hands jobs over with a [`Responder::Reactor`][crate::daemon]
//! handle; workers post pre-framed responses to the `CompletionQueue`
//! and nudge the reactor through the wakeup pipe.
//!
//! **Determinism.** Everything is generic over [`Poller`], so the unit
//! tests drive the exact production state machine with a scripted
//! [`epoll::MockPoller`] — spurious wakeups, out-of-order readiness and stale
//! tokens included — without opening a socket.

use crate::daemon::{Job, Responder, Shared};
use crate::proto::{
    self, Hello, ADMIN_SHUTDOWN, ADMIN_STATS, HELLO_SEQ, KIND_ADMIN, KIND_DATA, KIND_SEARCH_MANY,
    KIND_UPDATE_MANY, STATUS_BUSY, STATUS_ERR, STATUS_OK,
};
use crate::sched::{route_hash, JobSender};
use crate::stats::ServingStats;
use crate::tenant::TenantHandle;
use epoll::{wake_pipe, Event, Interest, Poller, RealPoller, WakeReader, Waker};
use sse_net::frame::StreamingDecoder;
use sse_net::pool::{BufPool, PooledBuf};
use sse_net::shutdown::ShutdownSignal;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token carried by listener readiness events.
pub(crate) const LISTENER_TOKEN: u64 = u64::MAX;
/// Token carried by wakeup-pipe readiness events.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Completion token that panics the reactor thread — a test hook for the
/// "reactor dies mid-load" shutdown-accounting path. Never used by
/// production code paths.
pub(crate) const POISON_TOKEN: u64 = u64::MAX - 2;

/// How long the final drain waits for peers to accept queued response
/// bytes before giving up on them.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Read scratch buffer size (per reactor, not per connection).
const SCRATCH_LEN: usize = 64 * 1024;

/// Iovec slots per `writev` (the syscall-coalescing batch bound).
const WRITEV_BATCH: usize = epoll::IOV_MAX;

/// Pack a slab index and generation into an epoll token.
fn make_token(idx: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

/// Split an epoll token back into `(idx, gen)`.
fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// A response payload segment: plain owned bytes, or a pool-backed view
/// whose drop recycles the buffer into the [`BufPool`] it came from.
pub(crate) enum Segment {
    Owned(Vec<u8>),
    Pooled(PooledBuf),
}

impl Segment {
    fn as_slice(&self) -> &[u8] {
        match self {
            Segment::Owned(v) => v,
            Segment::Pooled(b) => b,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// One outbound wire message held in scatter-gather form: the fixed
/// response prefix (frame length ‖ status ‖ seq) inline, the payload as a
/// borrowed-until-written segment. The two parts go to the kernel as
/// separate iovecs — the payload bytes are never memcpy'd into a
/// contiguous frame buffer.
pub(crate) struct OutMsg {
    head: [u8; 9],
    head_len: u8,
    payload: Segment,
}

impl OutMsg {
    /// A response envelope around `payload`.
    pub(crate) fn response(status: u8, seq: u32, payload: Segment) -> OutMsg {
        OutMsg {
            head: proto::response_prefix(status, seq, payload.len()),
            head_len: 9,
            payload,
        }
    }

    /// Pre-framed raw bytes (no prefix is added — test hooks only).
    pub(crate) fn raw(frame: Vec<u8>) -> OutMsg {
        OutMsg {
            head: [0; 9],
            head_len: 0,
            payload: Segment::Owned(frame),
        }
    }

    fn head(&self) -> &[u8] {
        &self.head[..usize::from(self.head_len)]
    }

    /// Total wire length.
    fn len(&self) -> usize {
        usize::from(self.head_len) + self.payload.len()
    }
}

/// One finished worker response, addressed by connection token.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) msg: OutMsg,
}

/// Worker → reactor handoff: a queue of responses plus the wakeup pipe
/// that unparks the reactor from `epoll_wait`.
pub(crate) struct CompletionQueue {
    queue: Mutex<VecDeque<Completion>>,
    waker: Waker,
}

impl CompletionQueue {
    pub(crate) fn new(waker: Waker) -> CompletionQueue {
        CompletionQueue {
            queue: Mutex::new(VecDeque::new()),
            waker,
        }
    }

    /// Post one response for the connection behind `token` and unpark the
    /// reactor.
    pub(crate) fn post(&self, token: u64, msg: OutMsg) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(Completion { token, msg });
        self.waker.notify();
    }

    /// Unpark the reactor without posting anything (shutdown nudges).
    pub(crate) fn wake(&self) {
        self.waker.notify();
    }

    fn drain_into(&self, out: &mut Vec<Completion>) {
        let mut q = self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        out.extend(q.drain(..));
    }
}

/// The socket side of a connection, abstracted so unit tests can script
/// reads and writes without a kernel socket.
pub(crate) trait ConnIo: Read + Write + Send {
    /// Raw fd for poller registration.
    fn fd(&self) -> RawFd;

    /// Gather-write `bufs` in order, returning bytes accepted (possibly a
    /// partial prefix of the total). The scripted test IO honors its
    /// write-capacity valve across segments so partial-`writev` resume is
    /// deterministic.
    fn writev(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize>;
}

impl ConnIo for TcpStream {
    fn fd(&self) -> RawFd {
        self.as_raw_fd()
    }

    fn writev(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        epoll::writev_fd(self.as_raw_fd(), bufs)
    }
}

/// Protocol position of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Nothing valid received yet; the first frame must be the hello.
    AwaitingHello,
    /// Hello accepted; serving requests for `tenant`.
    Established,
    /// A fatal protocol error was answered (or the envelope demands a
    /// close): stop reading, flush the write queue, then close.
    Draining,
}

/// Why a connection was closed — drives the per-reason counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CloseReason {
    /// Peer hung up (read returned 0) or reset.
    PeerClosed,
    /// A read or write failed with a real error.
    IoError,
    /// The draining write queue emptied after a protocol error or admin
    /// close.
    Drained,
    /// Reaped by the idle deadline.
    Idle,
    /// The bounded write queue overflowed: the peer reads slower than it
    /// triggers responses.
    SlowReader,
    /// Daemon shutdown closed the connection.
    Shutdown,
}

/// Per-connection state machine.
struct Conn {
    io: Box<dyn ConnIo>,
    state: ConnState,
    decoder: StreamingDecoder,
    tenant: Option<TenantHandle>,
    /// Responses not yet accepted by the kernel, oldest first, in
    /// scatter-gather form.
    write_queue: VecDeque<OutMsg>,
    /// Bytes of `write_queue.front()` already written. After a `writev`
    /// that spanned several messages this may transiently exceed the
    /// front's length; the flush loop normalizes it while popping.
    write_offset: usize,
    /// Total bytes across `write_queue` (the bound is checked against
    /// this sum).
    queued_bytes: usize,
    /// Jobs handed to workers whose responses have not come back yet. An
    /// in-flight connection is never idle-reaped.
    in_flight: u32,
    /// Scheduler routing key, fixed at hello from the tenant name and
    /// scheme: every job from this connection homes to one worker queue
    /// (tenant affinity).
    route: u64,
    /// Advanced only when a **complete** frame arrives — a slow-loris
    /// client dripping single header bytes stays eligible for the idle
    /// reaper.
    last_activity: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(io: Box<dyn ConnIo>, max_frame_len: u32, pool: Option<BufPool>) -> Conn {
        Conn {
            io,
            state: ConnState::AwaitingHello,
            decoder: match pool {
                Some(pool) => StreamingDecoder::with_pool(max_frame_len, pool),
                None => StreamingDecoder::with_max_len(max_frame_len),
            },
            tenant: None,
            write_queue: VecDeque::new(),
            write_offset: 0,
            queued_bytes: 0,
            in_flight: 0,
            route: 0,
            last_activity: Instant::now(),
            interest: Interest::READABLE,
        }
    }

    /// Unwritten response bytes still queued.
    fn pending_write_bytes(&self) -> usize {
        self.queued_bytes - self.write_offset
    }
}

/// Generation-checked connection slab. Slot indices are reused; the
/// generation in the token distinguishes the current occupant from a
/// late event for a closed predecessor.
struct ConnTable {
    slots: Vec<Option<(u32, Conn)>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u32,
}

impl ConnTable {
    fn new() -> ConnTable {
        ConnTable {
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            next_gen: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> (usize, u32) {
        let gen = self.next_gen;
        // Skip u32::MAX so a token can never collide with the reserved
        // LISTENER/WAKE/POISON tokens.
        self.next_gen = self.next_gen.wrapping_add(1);
        if self.next_gen == u32::MAX {
            self.next_gen = 0;
        }
        self.open += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some((gen, conn));
                (idx, gen)
            }
            None => {
                self.slots.push(Some((gen, conn)));
                (self.slots.len() - 1, gen)
            }
        }
    }

    fn get_mut(&mut self, idx: usize, gen: u32) -> Option<&mut Conn> {
        match self.slots.get_mut(idx) {
            Some(Some((g, conn))) if *g == gen => Some(conn),
            _ => None,
        }
    }

    fn remove(&mut self, idx: usize, gen: u32) -> Option<Conn> {
        match self.slots.get_mut(idx) {
            Some(slot @ Some(_)) if slot.as_ref().is_some_and(|(g, _)| *g == gen) => {
                let (_, conn) = slot.take()?;
                self.free.push(idx);
                self.open -= 1;
                Some(conn)
            }
            _ => None,
        }
    }

    fn tokens(&self) -> Vec<(usize, u32)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|(gen, _)| (idx, *gen)))
            .collect()
    }

    fn any_pending_writes(&self) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|(_, conn)| !conn.write_queue.is_empty())
    }
}

/// Reactor tunables, split from [`crate::daemon::ServerConfig`] so the
/// unit tests can construct them directly.
#[derive(Clone, Debug)]
pub(crate) struct ReactorOptions {
    pub(crate) max_frame_len: u32,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_conns: usize,
    pub(crate) write_queue_limit: usize,
    /// `Some` ⇒ zero-copy mode: frame bodies are assembled into pooled
    /// buffers and job payloads are sliced views of them. `None` falls
    /// back to the owned-buffer path (fresh `Vec` per frame, payload
    /// copied per job) — the pre-pool behavior, kept as the benchmark
    /// baseline and for `--no-pool` operation.
    pub(crate) pool: Option<BufPool>,
}

/// The event loop. Generic over the poller so tests substitute a
/// scripted [`epoll::MockPoller`] for the kernel.
pub(crate) struct Reactor<P: Poller> {
    poller: P,
    listener: Option<TcpListener>,
    wake: Option<WakeReader>,
    completions: Arc<CompletionQueue>,
    conns: ConnTable,
    shared: Arc<Shared>,
    /// Dropped when shutdown begins so workers see the scheduler close
    /// once every producer is gone.
    job_tx: Option<JobSender<Job>>,
    /// Second-phase signal: workers have been joined, flush what remains
    /// and exit.
    drain_done: ShutdownSignal,
    opts: ReactorOptions,
    scratch: Vec<u8>,
    frames: Vec<PooledBuf>,
    completion_buf: Vec<Completion>,
    /// Deduped connections touched by the current completion batch —
    /// reused across drains so a steady-state drain allocates nothing.
    touched_buf: Vec<(usize, u32)>,
    accepting: bool,
    last_sweep: Instant,
    shutdown_entered: bool,
    drain_since: Option<Instant>,
    /// Set when accept hit fd exhaustion (EMFILE/ENFILE): the listener's
    /// read interest is parked until this instant so a full backlog does
    /// not spin the level-triggered poll hot while no fd can be accepted.
    accept_paused_until: Option<Instant>,
}

impl Reactor<RealPoller> {
    /// Build a kernel-backed reactor: epoll instance, wakeup pipe, and
    /// the listener registered. Returns the reactor plus the completion
    /// queue handle workers and [`crate::daemon::Daemon::shutdown`] use
    /// to unpark it.
    pub(crate) fn new_real(
        listener: TcpListener,
        shared: Arc<Shared>,
        job_tx: JobSender<Job>,
        drain_done: ShutdownSignal,
        opts: ReactorOptions,
    ) -> std::io::Result<(Reactor<RealPoller>, Arc<CompletionQueue>)> {
        let mut poller = RealPoller::new()?;
        let (waker, wake_rx) = wake_pipe()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        poller.register(wake_rx.fd(), WAKE_TOKEN, Interest::READABLE)?;
        let completions = Arc::new(CompletionQueue::new(waker));
        let reactor = Reactor::with_parts(
            poller,
            Some(listener),
            Some(wake_rx),
            completions.clone(),
            shared,
            job_tx,
            drain_done,
            opts,
        );
        Ok((reactor, completions))
    }
}

impl<P: Poller> Reactor<P> {
    #[allow(clippy::too_many_arguments)]
    fn with_parts(
        poller: P,
        listener: Option<TcpListener>,
        wake: Option<WakeReader>,
        completions: Arc<CompletionQueue>,
        shared: Arc<Shared>,
        job_tx: JobSender<Job>,
        drain_done: ShutdownSignal,
        opts: ReactorOptions,
    ) -> Reactor<P> {
        Reactor {
            poller,
            listener,
            wake,
            completions,
            conns: ConnTable::new(),
            shared,
            job_tx: Some(job_tx),
            drain_done,
            opts,
            scratch: vec![0; SCRATCH_LEN],
            frames: Vec::new(),
            completion_buf: Vec::new(),
            touched_buf: Vec::new(),
            accepting: true,
            last_sweep: Instant::now(),
            shutdown_entered: false,
            drain_since: None,
            accept_paused_until: None,
        }
    }

    /// Idle sweep cadence: a quarter of the deadline, bounded so short
    /// test timeouts sweep promptly and long production timeouts don't
    /// spin.
    fn sweep_period(&self) -> Duration {
        (self.opts.idle_timeout / 4).clamp(Duration::from_millis(5), Duration::from_secs(1))
    }

    /// Run until shutdown completes. Panics on unrecoverable reactor
    /// errors (poll failure, fatal accept error, poison) — the daemon
    /// wraps this thread in `catch_unwind` and turns a panic into a
    /// graceful drain plus a `threads_panicked` count.
    pub(crate) fn run(&mut self) {
        let mut events = Vec::new();
        while self.turn(&mut events) {}
        self.close_all(CloseReason::Shutdown);
    }

    /// One poll-dispatch-sweep cycle. Returns `false` when the final
    /// drain is complete and the loop should exit.
    pub(crate) fn turn(&mut self, events: &mut Vec<Event>) -> bool {
        self.maybe_resume_accepts();
        let timeout = self.sweep_period().min(Duration::from_millis(100));
        match self.poller.wait(events, Some(timeout)) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("reactor: poll failed: {e}"),
        }
        let mut wake_seen = false;
        for &ev in events.iter() {
            match ev.token {
                LISTENER_TOKEN => self.accept_ready(),
                WAKE_TOKEN => wake_seen = true,
                _ => self.conn_event(ev),
            }
        }
        if wake_seen {
            // One pipe read per poll batch, no matter how many worker
            // notifications piled up while we were busy — every
            // notification beyond the first rode along for free.
            let notifications = self.wake.as_ref().map_or(0, WakeReader::drain);
            self.shared.stats.record_reactor_wakeup();
            self.shared
                .stats
                .record_wakeups_coalesced(notifications.saturating_sub(1) as u64);
        }
        // Completions can arrive without a wake being observed yet (the
        // pipe write races the poll timeout), so drain every turn.
        self.drain_completions();
        if self.shared.shutdown.is_requested() {
            self.enter_shutdown();
        } else {
            self.sweep_idle();
        }
        if self.drain_done.is_requested() {
            // Workers are joined: every completion is already posted.
            self.drain_completions();
            let deadline_passed = match self.drain_since {
                None => {
                    self.drain_since = Some(Instant::now());
                    false
                }
                Some(since) => since.elapsed() >= DRAIN_GRACE,
            };
            if !self.conns.any_pending_writes() || deadline_passed {
                return false;
            }
        }
        true
    }

    /// Accept every pending connection (level-triggered: stop at
    /// `WouldBlock`). A fatal listener error panics — the daemon's
    /// catch_unwind wrapper converts that into a graceful drain with the
    /// panic counted, because a daemon that can never accept again must
    /// not linger as a silent connection-refuser.
    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.open >= self.opts.max_conns {
                        // At capacity: shed at accept. Dropping the socket
                        // sends the peer a clean close; unlike the old
                        // BUSY-on-accept there is no thread to protect,
                        // only the conn-table bound.
                        self.shared.stats.record_conn_rejected();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Pipelined clients read several small responses per
                    // burst; Nagle would hold every response after the
                    // first until the peer's (delayed) ACK.
                    stream.set_nodelay(true).ok();
                    let fd = stream.as_raw_fd();
                    let (idx, gen) = self.conns.insert(Conn::new(
                        Box::new(stream),
                        self.opts.max_frame_len,
                        self.opts.pool.clone(),
                    ));
                    let token = make_token(idx, gen);
                    if self.poller.register(fd, token, Interest::READABLE).is_err() {
                        self.conns.remove(idx, gen);
                        continue;
                    }
                    self.shared.stats.record_conn_accepted();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                // EMFILE/ENFILE: fd exhaustion is load, not a broken
                // listener. Count the shed connection and park the
                // listener's read interest briefly — the pending sockets
                // stay in the backlog, and without the park a
                // level-triggered poll would spin hot on a listener that
                // cannot be accepted from.
                Err(e) if matches!(e.raw_os_error(), Some(23 | 24)) => {
                    self.shared.stats.record_conn_rejected();
                    let fd = listener.as_raw_fd();
                    let parked = Interest {
                        readable: false,
                        writable: false,
                    };
                    if self.poller.reregister(fd, LISTENER_TOKEN, parked).is_ok() {
                        self.accept_paused_until =
                            Some(Instant::now() + Duration::from_millis(100));
                    }
                    break;
                }
                Err(e) => {
                    self.shared.shutdown.request();
                    panic!("reactor: fatal accept error: {e}");
                }
            }
        }
    }

    /// Re-arm a listener parked by fd exhaustion once the pause expires
    /// (fds may have freed in the meantime; if not, the next accept just
    /// parks it again).
    fn maybe_resume_accepts(&mut self) {
        let due = matches!(self.accept_paused_until, Some(until) if Instant::now() >= until);
        if !due {
            return;
        }
        self.accept_paused_until = None;
        if !self.accepting {
            return;
        }
        if let Some(listener) = &self.listener {
            let fd = listener.as_raw_fd();
            let _ = self
                .poller
                .reregister(fd, LISTENER_TOKEN, Interest::READABLE);
        }
    }

    /// Dispatch one readiness event for a connection token. Stale tokens
    /// (the slot was reused or the conn closed) are ignored — epoll may
    /// deliver events queued before a deregister.
    fn conn_event(&mut self, ev: Event) {
        let (idx, gen) = split_token(ev.token);
        if self.conns.get_mut(idx, gen).is_none() {
            return;
        }
        if ev.error {
            self.close_conn(idx, gen, CloseReason::IoError);
            return;
        }
        // Writable first: draining the queue may free the bound before
        // new responses are enqueued by the readable half.
        if ev.writable {
            self.on_writable(idx, gen);
        }
        if ev.readable {
            self.on_readable(idx, gen);
        }
    }

    /// Read until `WouldBlock`, feeding the streaming decoder and
    /// handling every completed frame in arrival order.
    fn on_readable(&mut self, idx: usize, gen: u32) {
        let token = make_token(idx, gen);
        let shutdown = self.shared.shutdown.is_requested();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut frames = std::mem::take(&mut self.frames);
        let mut close: Option<CloseReason> = None;
        let mut progressed = false;
        'read: while let Some(conn) = self.conns.get_mut(idx, gen) {
            if shutdown || conn.state == ConnState::Draining {
                break;
            }
            let n = match conn.io.read(&mut scratch) {
                Ok(0) => {
                    close = Some(CloseReason::PeerClosed);
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = Some(CloseReason::IoError);
                    break;
                }
            };
            progressed = true;
            frames.clear();
            if let Err(too_large) = conn.decoder.feed_pooled(&scratch[..n], &mut frames) {
                // Forged or oversized length prefix: answer ERR and
                // drain. Frames completed earlier in this chunk still
                // get handled below? No — a poisoned decoder taints the
                // whole chunk; drop them with the connection.
                self.shared.stats.record_err();
                conn.state = ConnState::Draining;
                let err = Self::enqueue_response(
                    &mut self.poller,
                    &self.shared.stats,
                    conn,
                    token,
                    STATUS_ERR,
                    HELLO_SEQ,
                    too_large.to_string().into_bytes(),
                    self.opts.write_queue_limit,
                    false,
                );
                if err.is_err() {
                    close = Some(CloseReason::IoError);
                } else if conn.write_queue.is_empty() {
                    close = Some(CloseReason::Drained);
                }
                break;
            }
            for frame in frames.drain(..) {
                let Some(conn) = self.conns.get_mut(idx, gen) else {
                    break 'read;
                };
                // Only complete frames count as activity: slow-loris
                // drips never reset the idle deadline.
                conn.last_activity = Instant::now();
                match Self::handle_frame(
                    &mut self.poller,
                    conn,
                    token,
                    frame,
                    &self.shared,
                    self.job_tx.as_ref(),
                    &self.completions,
                    &self.opts,
                ) {
                    Ok(()) => {}
                    Err(reason) => {
                        close = Some(reason);
                        break 'read;
                    }
                }
                if conn.state == ConnState::Draining {
                    break;
                }
            }
        }
        self.scratch = scratch;
        self.frames = frames;
        if !progressed && close.is_none() {
            // The kernel woke us for a socket with nothing to read — by
            // contract that must be harmless.
            self.shared.stats.record_reactor_spurious_poll();
        }
        if close.is_none() {
            if let Some(conn) = self.conns.get_mut(idx, gen) {
                if conn.state == ConnState::Draining && conn.write_queue.is_empty() {
                    close = Some(CloseReason::Drained);
                }
            }
        }
        if let Some(reason) = close {
            self.close_conn(idx, gen, reason);
        }
    }

    /// Drain the write queue after an `EPOLLOUT`, disarming write
    /// interest once empty and closing draining connections that have
    /// flushed their final bytes.
    fn on_writable(&mut self, idx: usize, gen: u32) {
        let token = make_token(idx, gen);
        let shutdown = self.shared.shutdown.is_requested();
        let mut close: Option<CloseReason> = None;
        if let Some(conn) = self.conns.get_mut(idx, gen) {
            if conn.write_queue.is_empty() {
                self.shared.stats.record_reactor_spurious_poll();
            } else if let Err(reason) = Self::flush_conn(conn, &self.shared.stats) {
                close = Some(reason);
            }
            if close.is_none() {
                let reads = !shutdown && conn.state != ConnState::Draining;
                Self::sync_interest(&mut self.poller, &self.shared.stats, conn, token, reads);
                if conn.state == ConnState::Draining
                    && conn.write_queue.is_empty()
                    && conn.in_flight == 0
                {
                    close = Some(CloseReason::Drained);
                }
            }
        }
        if let Some(reason) = close {
            self.close_conn(idx, gen, reason);
        }
    }

    /// Interpret one complete frame according to the connection's state.
    ///
    /// Takes the frame **by value**: in pooled mode the job payload is a
    /// sliced view of the frame's pool buffer (no copy), and frames the
    /// protocol judged malformed are poisoned so their buffer is never
    /// recycled into the pool.
    #[allow(clippy::too_many_arguments)]
    fn handle_frame(
        poller: &mut P,
        conn: &mut Conn,
        token: u64,
        frame: PooledBuf,
        shared: &Shared,
        job_tx: Option<&JobSender<Job>>,
        completions: &Arc<CompletionQueue>,
        opts: &ReactorOptions,
    ) -> Result<(), CloseReason> {
        let stats = &shared.stats;
        match conn.state {
            ConnState::AwaitingHello => match Hello::decode(&frame) {
                Some(hello) => {
                    let existed = shared.registry.contains(&hello.tenant, hello.scheme);
                    match shared.registry.get_or_create(&hello.tenant, hello.scheme) {
                        Ok(handle) => {
                            if existed {
                                stats.record_reconnect();
                            }
                            conn.route = route_hash(&hello.tenant, hello.scheme);
                            conn.tenant = Some(handle);
                            conn.state = ConnState::Established;
                            Self::enqueue_response(
                                poller,
                                stats,
                                conn,
                                token,
                                STATUS_OK,
                                HELLO_SEQ,
                                Vec::new(),
                                opts.write_queue_limit,
                                true,
                            )
                        }
                        Err(e) => {
                            stats.record_err();
                            conn.state = ConnState::Draining;
                            Self::enqueue_response(
                                poller,
                                stats,
                                conn,
                                token,
                                STATUS_ERR,
                                HELLO_SEQ,
                                format!("tenant open failed: {e}").into_bytes(),
                                opts.write_queue_limit,
                                false,
                            )
                        }
                    }
                }
                None => {
                    stats.record_err();
                    conn.state = ConnState::Draining;
                    frame.poison();
                    Self::enqueue_response(
                        poller,
                        stats,
                        conn,
                        token,
                        STATUS_ERR,
                        HELLO_SEQ,
                        b"malformed hello".to_vec(),
                        opts.write_queue_limit,
                        false,
                    )
                }
            },
            ConnState::Established => {
                let Some((kind, seq, _)) = proto::decode_request(&frame) else {
                    stats.record_err();
                    conn.state = ConnState::Draining;
                    frame.poison();
                    return Self::enqueue_response(
                        poller,
                        stats,
                        conn,
                        token,
                        STATUS_ERR,
                        HELLO_SEQ,
                        b"malformed request".to_vec(),
                        opts.write_queue_limit,
                        false,
                    );
                };
                match kind {
                    KIND_DATA | KIND_UPDATE_MANY | KIND_SEARCH_MANY => {
                        let tenant = conn
                            .tenant
                            .clone()
                            .expect("established connection has a tenant");
                        // Pooled mode hands the worker a view into the
                        // frame's pool buffer past the 5-byte envelope —
                        // the request payload is never copied between the
                        // socket read and the scheme handler. The
                        // owned-buffer fallback keeps the old copy and
                        // counts it.
                        let payload = if opts.pool.is_some() {
                            let mut view = frame;
                            view.advance(proto::REQUEST_HEADER_LEN);
                            view
                        } else {
                            let body = frame[proto::REQUEST_HEADER_LEN..].to_vec();
                            stats.record_bytes_copied(body.len() as u64);
                            PooledBuf::from_vec(body)
                        };
                        let job = Job {
                            tenant,
                            kind,
                            seq,
                            payload,
                            responder: Responder::Reactor {
                                token,
                                completions: completions.clone(),
                                pool: opts.pool.clone(),
                            },
                            accepted: Instant::now(),
                        };
                        // `None` (shutdown already began; workers are
                        // draining) is treated like a full queue.
                        let outcome = match job_tx {
                            Some(tx) => tx.try_send(conn.route, job).map_err(|_job| ()),
                            None => Err(()),
                        };
                        match outcome {
                            Ok(()) => {
                                conn.in_flight += 1;
                                Ok(())
                            }
                            Err(()) => {
                                // Explicit job-queue backpressure (every
                                // run queue full, home and spill alike):
                                // reject now, the client backs off and
                                // retries.
                                stats.record_busy();
                                Self::enqueue_response(
                                    poller,
                                    stats,
                                    conn,
                                    token,
                                    STATUS_BUSY,
                                    seq,
                                    Vec::new(),
                                    opts.write_queue_limit,
                                    true,
                                )
                            }
                        }
                    }
                    KIND_ADMIN => match frame.get(proto::REQUEST_HEADER_LEN).copied() {
                        Some(ADMIN_STATS) => {
                            let snap = shared.full_snapshot().encode();
                            Self::enqueue_response(
                                poller,
                                stats,
                                conn,
                                token,
                                STATUS_OK,
                                seq,
                                snap,
                                opts.write_queue_limit,
                                true,
                            )
                        }
                        Some(ADMIN_SHUTDOWN) => {
                            let res = Self::enqueue_response(
                                poller,
                                stats,
                                conn,
                                token,
                                STATUS_OK,
                                seq,
                                Vec::new(),
                                opts.write_queue_limit,
                                false,
                            );
                            shared.shutdown.request();
                            res
                        }
                        _ => {
                            stats.record_err();
                            conn.state = ConnState::Draining;
                            frame.poison();
                            Self::enqueue_response(
                                poller,
                                stats,
                                conn,
                                token,
                                STATUS_ERR,
                                seq,
                                b"unknown admin command".to_vec(),
                                opts.write_queue_limit,
                                false,
                            )
                        }
                    },
                    _ => {
                        stats.record_err();
                        conn.state = ConnState::Draining;
                        frame.poison();
                        Self::enqueue_response(
                            poller,
                            stats,
                            conn,
                            token,
                            STATUS_ERR,
                            seq,
                            b"unknown request kind".to_vec(),
                            opts.write_queue_limit,
                            false,
                        )
                    }
                }
            }
            // Already draining: frames decoded after the fatal one are
            // ignored.
            ConnState::Draining => Ok(()),
        }
    }

    /// Enqueue one response envelope around an owned payload.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_response(
        poller: &mut P,
        stats: &ServingStats,
        conn: &mut Conn,
        token: u64,
        status: u8,
        seq: u32,
        payload: Vec<u8>,
        limit: usize,
        reads: bool,
    ) -> Result<(), CloseReason> {
        let msg = OutMsg::response(status, seq, Segment::Owned(payload));
        Self::enqueue_msg(poller, stats, conn, token, msg, limit, reads)
    }

    /// Queue an outbound message, flush what the kernel will take now,
    /// and enforce the write-queue bound. `reads` is whether the
    /// connection should remain read-subscribed (false while
    /// draining/shutdown).
    fn enqueue_msg(
        poller: &mut P,
        stats: &ServingStats,
        conn: &mut Conn,
        token: u64,
        msg: OutMsg,
        limit: usize,
        reads: bool,
    ) -> Result<(), CloseReason> {
        conn.queued_bytes += msg.len();
        conn.write_queue.push_back(msg);
        Self::flush_conn(conn, stats)?;
        if conn.pending_write_bytes() > limit {
            // The peer is not draining its responses: cut it loose
            // rather than buffer without bound. (This replaces the old
            // per-connection thread blocking in write_all.)
            return Err(CloseReason::SlowReader);
        }
        Self::sync_interest(poller, stats, conn, token, reads);
        Ok(())
    }

    /// Write queued messages until the kernel pushes back, gathering up
    /// to [`WRITEV_BATCH`] segments per `writev` — every response queued
    /// behind a slow kernel buffer rides out in the same syscall once it
    /// opens, and each message's head and payload go out as separate
    /// iovecs (the payload is never copied into a contiguous frame).
    fn flush_conn(conn: &mut Conn, stats: &ServingStats) -> Result<(), CloseReason> {
        loop {
            // Normalize the cursor: a gather write may have completed
            // several messages at once, leaving `write_offset` past the
            // front. Pop every fully-written message.
            while let Some(front) = conn.write_queue.front() {
                let len = front.len();
                if conn.write_offset < len {
                    break;
                }
                conn.write_offset -= len;
                conn.queued_bytes -= len;
                conn.write_queue.pop_front();
            }
            if conn.write_queue.is_empty() {
                return Ok(());
            }
            // Gather: the front message from its cursor, later messages
            // whole, skipping empty parts so every iovec carries bytes.
            let mut iovs = [IoSlice::new(&[]); WRITEV_BATCH];
            let mut cnt = 0;
            let mut skip = conn.write_offset;
            'gather: for msg in &conn.write_queue {
                for part in [msg.head(), msg.payload.as_slice()] {
                    if skip >= part.len() {
                        skip -= part.len();
                        continue;
                    }
                    if cnt == WRITEV_BATCH {
                        break 'gather;
                    }
                    iovs[cnt] = IoSlice::new(&part[skip..]);
                    skip = 0;
                    cnt += 1;
                }
            }
            let n = match conn.io.writev(&iovs[..cnt]) {
                Ok(0) => return Err(CloseReason::IoError),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseReason::IoError),
            };
            conn.write_offset += n;
            // Credit this call with every message whose final byte it
            // wrote — `writev_frames / writev_calls` is then the true
            // mean syscall batch.
            let mut flushed = 0u64;
            let mut consumed = 0usize;
            for msg in &conn.write_queue {
                consumed += msg.len();
                if consumed > conn.write_offset {
                    break;
                }
                flushed += 1;
            }
            stats.record_writev(flushed);
        }
    }

    /// Reconcile poller interest with the connection's needs: readable
    /// while serving, writable exactly while the write queue is
    /// non-empty.
    fn sync_interest(
        poller: &mut P,
        stats: &ServingStats,
        conn: &mut Conn,
        token: u64,
        reads: bool,
    ) {
        let want = Interest {
            readable: reads,
            writable: !conn.write_queue.is_empty(),
        };
        if want != conn.interest {
            if want.writable && !conn.interest.writable {
                stats.record_write_deferred();
            }
            let _ = poller.reregister(conn.io.fd(), token, want);
            conn.interest = want;
        }
    }

    /// Deliver worker responses posted since the last turn, in two
    /// phases: queue every completion onto its connection first, then
    /// flush each touched connection once — responses that arrived in
    /// the same drain share gather-write syscalls instead of paying one
    /// `writev` each.
    fn drain_completions(&mut self) {
        let mut buf = std::mem::take(&mut self.completion_buf);
        self.completions.drain_into(&mut buf);
        let mut touched = std::mem::take(&mut self.touched_buf);
        touched.clear();
        for completion in buf.drain(..) {
            if completion.token == POISON_TOKEN {
                panic!("reactor: poisoned by test hook");
            }
            let (idx, gen) = split_token(completion.token);
            // Stale token: the connection closed while its job was in
            // flight; the response is dropped on the floor.
            if let Some(conn) = self.conns.get_mut(idx, gen) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
                conn.queued_bytes += completion.msg.len();
                conn.write_queue.push_back(completion.msg);
                if !touched.contains(&(idx, gen)) {
                    touched.push((idx, gen));
                }
            }
        }
        self.completion_buf = buf;
        let shutdown = self.shared.shutdown.is_requested();
        for (idx, gen) in touched.drain(..) {
            let token = make_token(idx, gen);
            let mut close: Option<CloseReason> = None;
            if let Some(conn) = self.conns.get_mut(idx, gen) {
                let reads = !shutdown && conn.state != ConnState::Draining;
                if let Err(reason) = Self::flush_conn(conn, &self.shared.stats) {
                    close = Some(reason);
                } else if conn.pending_write_bytes() > self.opts.write_queue_limit {
                    // The peer is not draining its responses: cut it
                    // loose rather than buffer without bound.
                    close = Some(CloseReason::SlowReader);
                } else if conn.state == ConnState::Draining
                    && conn.write_queue.is_empty()
                    && conn.in_flight == 0
                {
                    close = Some(CloseReason::Drained);
                } else {
                    Self::sync_interest(&mut self.poller, &self.shared.stats, conn, token, reads);
                }
            }
            if let Some(reason) = close {
                self.close_conn(idx, gen, reason);
            }
        }
        self.touched_buf = touched;
    }

    /// Reap connections quiescent past the idle deadline. A connection
    /// with a job in flight or bytes still to write is active no matter
    /// how old its last frame is.
    fn sweep_idle(&mut self) {
        if self.last_sweep.elapsed() < self.sweep_period() {
            return;
        }
        self.last_sweep = Instant::now();
        let idle_timeout = self.opts.idle_timeout;
        let stale: Vec<(usize, u32)> = self
            .conns
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let (gen, conn) = slot.as_ref()?;
                let quiescent = conn.in_flight == 0 && conn.write_queue.is_empty();
                (quiescent && conn.last_activity.elapsed() >= idle_timeout).then_some((idx, *gen))
            })
            .collect();
        for (idx, gen) in stale {
            self.close_conn(idx, gen, CloseReason::Idle);
        }
    }

    /// First shutdown phase: stop accepting, release the listener, stop
    /// reading, and drop the job sender so workers can drain out.
    fn enter_shutdown(&mut self) {
        if self.shutdown_entered {
            return;
        }
        self.shutdown_entered = true;
        self.accepting = false;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        self.job_tx = None;
        for (idx, gen) in self.conns.tokens() {
            let token = make_token(idx, gen);
            if let Some(conn) = self.conns.get_mut(idx, gen) {
                Self::sync_interest(&mut self.poller, &self.shared.stats, conn, token, false);
            }
        }
    }

    fn close_conn(&mut self, idx: usize, gen: u32, reason: CloseReason) {
        if let Some(conn) = self.conns.remove(idx, gen) {
            let _ = self.poller.deregister(conn.io.fd());
            let stats = &self.shared.stats;
            match reason {
                CloseReason::Idle => stats.record_idle_reaped(),
                CloseReason::SlowReader => stats.record_slow_reader_disconnect(),
                _ => {}
            }
            stats.record_conn_closed();
        }
    }

    fn close_all(&mut self, reason: CloseReason) {
        for (idx, gen) in self.conns.tokens() {
            self.close_conn(idx, gen, reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DEFAULT_WRITE_QUEUE_LIMIT;
    use crate::proto::SchemeId;
    use crate::sched::{SchedCounters, Scheduler};
    use crate::scrub::ScrubCounters;
    use crate::tenant::{TenantParams, TenantRegistry};
    use epoll::MockPoller;
    use sse_net::frame::encode_frame;
    use std::io;

    /// Scripted connection IO: reads come from a queue (`None` ⇒
    /// `WouldBlock`, empty vec ⇒ EOF), writes land in a shared buffer up
    /// to a shared "kernel send buffer" capacity so tests can force
    /// partial writes and then open the valve like an `EPOLLOUT`.
    struct ScriptIo {
        fd: RawFd,
        reads: VecDeque<Option<Vec<u8>>>,
        written: Arc<Mutex<Vec<u8>>>,
        write_cap: Arc<Mutex<usize>>,
    }

    impl ScriptIo {
        #[allow(clippy::type_complexity)]
        fn new(fd: RawFd) -> (ScriptIo, Arc<Mutex<Vec<u8>>>, Arc<Mutex<usize>>) {
            let written = Arc::new(Mutex::new(Vec::new()));
            let cap = Arc::new(Mutex::new(usize::MAX));
            let io = ScriptIo {
                fd,
                reads: VecDeque::new(),
                written: written.clone(),
                write_cap: cap.clone(),
            };
            (io, written, cap)
        }

        fn push_read(&mut self, bytes: &[u8]) {
            self.reads.push_back(Some(bytes.to_vec()));
        }

        fn push_eof(&mut self) {
            self.reads.push_back(Some(Vec::new()));
        }
    }

    impl Read for ScriptIo {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(Some(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "script chunk exceeds scratch");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) | None => Err(io::Error::from(ErrorKind::WouldBlock)),
            }
        }
    }

    impl Write for ScriptIo {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut cap = self.write_cap.lock().unwrap();
            let take = buf.len().min(*cap);
            if take == 0 {
                return Err(io::Error::from(ErrorKind::WouldBlock));
            }
            *cap -= take;
            self.written.lock().unwrap().extend_from_slice(&buf[..take]);
            Ok(take)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl ConnIo for ScriptIo {
        fn fd(&self) -> RawFd {
            self.fd
        }

        /// Honors the shared write-capacity valve **across** segments, so
        /// a partial gather write stops mid-message exactly like a full
        /// kernel send buffer would.
        fn writev(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut cap = self.write_cap.lock().unwrap();
            let mut sink = self.written.lock().unwrap();
            let mut total = 0;
            for buf in bufs {
                let take = buf.len().min(*cap);
                sink.extend_from_slice(&buf[..take]);
                *cap -= take;
                total += take;
                if take < buf.len() {
                    break;
                }
            }
            if total == 0 && bufs.iter().any(|b| !b.is_empty()) {
                return Err(io::Error::from(ErrorKind::WouldBlock));
            }
            Ok(total)
        }
    }

    fn test_shared(idle_timeout: Duration) -> Arc<Shared> {
        Arc::new(Shared {
            shutdown: ShutdownSignal::new(),
            stats: Arc::new(ServingStats::new()),
            registry: Arc::new(TenantRegistry::new(TenantParams::default())),
            fault_stats: None,
            scrub: Arc::new(ScrubCounters::new()),
            max_frame_len: sse_net::frame::MAX_FRAME_LEN,
            idle_timeout,
            pool: BufPool::new(),
            sched: Arc::new(SchedCounters::default()),
        })
    }

    struct Rig {
        reactor: Reactor<MockPoller>,
        completions: Arc<CompletionQueue>,
        /// The consumer side of the scheduler the reactor submits into —
        /// tests pop it like the worker pool would (single queue, so
        /// `try_next(0)` observes submit order).
        sched: Arc<Scheduler<Job>>,
        shared: Arc<Shared>,
        events: Vec<Event>,
    }

    fn rig_with(idle_timeout: Duration, queue_depth: usize, write_queue_limit: usize) -> Rig {
        let shared = test_shared(idle_timeout);
        let (sched, job_tx) = Scheduler::<Job>::new(1, queue_depth, true);
        let (waker, wake_rx) = wake_pipe().expect("wake pipe");
        let completions = Arc::new(CompletionQueue::new(waker));
        let opts = ReactorOptions {
            max_frame_len: sse_net::frame::MAX_FRAME_LEN,
            idle_timeout,
            max_conns: 1024,
            write_queue_limit,
            pool: Some(BufPool::new()),
        };
        let reactor = Reactor::with_parts(
            MockPoller::new(),
            None,
            Some(wake_rx),
            completions.clone(),
            shared.clone(),
            job_tx,
            ShutdownSignal::new(),
            opts,
        );
        Rig {
            reactor,
            completions,
            sched,
            shared,
            events: Vec::new(),
        }
    }

    fn rig() -> Rig {
        // Generous idle timeout: nothing is reaped unless a test asks.
        rig_with(Duration::from_secs(60), 8, DEFAULT_WRITE_QUEUE_LIMIT)
    }

    impl Rig {
        fn add_conn(&mut self, io: ScriptIo) -> (usize, u32, u64) {
            let fd = io.fd();
            let (idx, gen) = self.reactor.conns.insert(Conn::new(
                Box::new(io),
                self.reactor.opts.max_frame_len,
                self.reactor.opts.pool.clone(),
            ));
            let token = make_token(idx, gen);
            self.reactor
                .poller
                .register(fd, token, Interest::READABLE)
                .unwrap();
            self.shared.stats.record_conn_accepted();
            (idx, gen, token)
        }

        /// Script one readiness batch and run one turn.
        fn turn_with(&mut self, batch: Vec<Event>) -> bool {
            self.reactor.poller.push_batch(batch);
            self.reactor.turn(&mut self.events)
        }

        fn conn(&mut self, idx: usize, gen: u32) -> &mut Conn {
            self.reactor.conns.get_mut(idx, gen).expect("conn live")
        }

        fn is_open(&mut self, idx: usize, gen: u32) -> bool {
            self.reactor.conns.get_mut(idx, gen).is_some()
        }
    }

    fn hello_frame() -> Vec<u8> {
        encode_frame(
            &Hello {
                tenant: "t1".into(),
                scheme: SchemeId::Scheme1,
            }
            .encode(),
        )
    }

    fn ok_response(seq: u32, payload: &[u8]) -> Vec<u8> {
        encode_frame(&proto::encode_response(STATUS_OK, seq, payload))
    }

    /// Post an OK completion the way a worker does: scatter-gather form,
    /// wire-identical to `ok_response(seq, payload)`.
    fn post_ok(completions: &CompletionQueue, token: u64, seq: u32, payload: &[u8]) {
        completions.post(
            token,
            OutMsg::response(STATUS_OK, seq, Segment::Owned(payload.to_vec())),
        );
    }

    #[test]
    fn hello_then_data_round_trips_through_worker_completion() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);

        // Readable: hello decodes, tenant opens, OK is written straight
        // through (model: exactly the framed OK response bytes).
        rig.turn_with(vec![Event::readable(token)]);
        assert_eq!(*written.lock().unwrap(), ok_response(HELLO_SEQ, &[]));
        assert_eq!(rig.conn(idx, gen).state, ConnState::Established);

        // Readable again: a DATA request becomes exactly one job with
        // the envelope fields preserved.
        let req = encode_frame(&proto::encode_request(KIND_DATA, 9, b"query-bytes"));
        // Reach into the conn to append scripted input.
        // (ScriptIo moved into the conn; feed through a fresh event by
        // swapping bytes into the decoder is not possible — instead keep
        // a second scripted chunk pattern: new conns get all chunks up
        // front in other tests; here we exercise the two-step path.)
        // Simplest faithful route: close over a new conn.
        drop(req);
        let (mut io2, written2, _cap2) = ScriptIo::new(8);
        io2.push_read(&hello_frame());
        io2.push_read(&encode_frame(&proto::encode_request(
            KIND_DATA,
            9,
            b"query-bytes",
        )));
        let (idx2, gen2, token2) = rig.add_conn(io2);
        rig.turn_with(vec![Event::readable(token2)]);
        let job = rig.sched.try_next(0).expect("job queued");
        assert_eq!(job.kind, KIND_DATA);
        assert_eq!(job.seq, 9);
        assert_eq!(&job.payload[..], b"query-bytes");
        assert_eq!(rig.conn(idx2, gen2).in_flight, 1);

        // Worker completes: the framed response is delivered on the next
        // turn and in_flight returns to zero (the conn is reapable
        // again).
        let response = ok_response(9, b"result");
        post_ok(&rig.completions, token2, 9, b"result");
        rig.turn_with(vec![]);
        let got = written2.lock().unwrap().clone();
        assert_eq!(got, [ok_response(HELLO_SEQ, &[]), response].concat());
        assert_eq!(rig.conn(idx2, gen2).in_flight, 0);
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn spurious_readable_wakeup_is_harmless_and_counted() {
        let mut rig = rig();
        let (io, written, _cap) = ScriptIo::new(7);
        // No scripted reads: the socket immediately WouldBlocks.
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        assert!(rig.is_open(idx, gen));
        assert!(written.lock().unwrap().is_empty());
        assert_eq!(rig.shared.stats.snapshot().reactor_spurious_polls, 1);
    }

    #[test]
    fn epollout_before_epollin_is_a_noop() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        // Writable readiness arrives before any readable readiness (the
        // kernel may report them in any order): with an empty write
        // queue it must be a counted no-op, then the hello proceeds.
        rig.turn_with(vec![Event::writable(token)]);
        assert_eq!(rig.conn(idx, gen).state, ConnState::AwaitingHello);
        assert_eq!(rig.shared.stats.snapshot().reactor_spurious_polls, 1);
        rig.turn_with(vec![Event::readable(token)]);
        assert_eq!(rig.conn(idx, gen).state, ConnState::Established);
        assert_eq!(*written.lock().unwrap(), ok_response(HELLO_SEQ, &[]));
    }

    #[test]
    fn readiness_for_a_closed_fd_is_ignored() {
        let mut rig = rig();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_eof();
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        assert!(!rig.is_open(idx, gen), "EOF closes the connection");
        // The kernel may still deliver queued events for the dead token;
        // and the slot may be reused by a new connection with a new
        // generation. Neither the stale readable nor a stale completion
        // may touch the new occupant.
        let (io2, written2, _cap2) = ScriptIo::new(8);
        let (idx2, gen2, _token2) = rig.add_conn(io2);
        assert_eq!(idx2, idx, "slot is reused");
        assert_ne!(gen2, gen, "generation advanced");
        post_ok(&rig.completions, token, 3, b"stale");
        rig.turn_with(vec![Event::readable(token), Event::writable(token)]);
        assert!(rig.is_open(idx2, gen2));
        assert!(written2.lock().unwrap().is_empty(), "stale frame dropped");
    }

    #[test]
    fn error_event_closes_the_connection() {
        let mut rig = rig();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::error(token)]);
        assert!(!rig.is_open(idx, gen));
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.conns_open, 0);
    }

    #[test]
    fn partial_write_arms_epollout_then_drains_and_disarms() {
        let mut rig = rig();
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        // Kernel accepts only 3 bytes of the hello response.
        *cap.lock().unwrap() = 3;
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let expected = ok_response(HELLO_SEQ, &[]);
        assert_eq!(*written.lock().unwrap(), expected[..3]);
        assert_eq!(
            rig.reactor.poller.interest_of(7),
            Some(Interest::READ_WRITE),
            "unwritten bytes arm EPOLLOUT"
        );
        assert_eq!(rig.shared.stats.snapshot().writes_deferred, 1);
        // The valve opens (EPOLLOUT): the tail flushes and interest
        // returns to read-only.
        *cap.lock().unwrap() = usize::MAX;
        rig.turn_with(vec![Event::writable(token)]);
        assert_eq!(*written.lock().unwrap(), expected);
        assert_eq!(rig.reactor.poller.interest_of(7), Some(Interest::READABLE));
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn never_draining_reader_hits_write_queue_bound_and_is_disconnected() {
        // Tiny bound so two queued responses overflow it.
        let mut rig = rig_with(Duration::from_secs(60), 8, 16);
        let (mut io, _written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        *cap.lock().unwrap() = 0; // peer never drains anything
        let (idx, gen, token) = rig.add_conn(io);
        // Hello response (11 bytes framed) queues under the 16-byte
        // bound; the connection survives but is deferred.
        rig.turn_with(vec![Event::readable(token)]);
        assert!(rig.is_open(idx, gen));
        // A worker completion pushes the queue past the bound: the slow
        // reader is disconnected, memory stays bounded.
        post_ok(&rig.completions, token, 1, b"big-response");
        rig.turn_with(vec![]);
        assert!(!rig.is_open(idx, gen));
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.slow_reader_disconnects, 1);
        assert_eq!(snap.conns_open, 0);
    }

    #[test]
    fn idle_reaper_skips_connections_with_work_in_flight() {
        let idle = Duration::from_millis(50);
        let mut rig = rig_with(idle, 8, DEFAULT_WRITE_QUEUE_LIMIT);
        let (mut io_a, _wa, _ca) = ScriptIo::new(7);
        io_a.push_read(&hello_frame());
        io_a.push_read(&encode_frame(&proto::encode_request(KIND_DATA, 1, b"q")));
        let (idx_a, gen_a, token_a) = rig.add_conn(io_a);
        let (mut io_b, _wb, _cb) = ScriptIo::new(8);
        io_b.push_read(&hello_frame());
        let (idx_b, gen_b, token_b) = rig.add_conn(io_b);
        rig.turn_with(vec![Event::readable(token_a), Event::readable(token_b)]);
        assert_eq!(rig.conn(idx_a, gen_a).in_flight, 1);

        // Age both conns past the deadline and force a sweep.
        let past = Instant::now() - idle * 2;
        rig.conn(idx_a, gen_a).last_activity = past;
        rig.conn(idx_b, gen_b).last_activity = past;
        rig.reactor.last_sweep = past;
        rig.turn_with(vec![]);
        assert!(
            rig.is_open(idx_a, gen_a),
            "in-flight connection must not be reaped"
        );
        assert!(!rig.is_open(idx_b, gen_b), "quiescent connection reaped");
        assert_eq!(rig.shared.stats.snapshot().conns_idle_reaped, 1);

        // The completion lands, the conn quiesces — now it's reapable.
        post_ok(&rig.completions, token_a, 1, b"r");
        rig.turn_with(vec![]);
        rig.conn(idx_a, gen_a).last_activity = Instant::now() - idle * 2;
        rig.reactor.last_sweep = past;
        rig.turn_with(vec![]);
        assert!(!rig.is_open(idx_a, gen_a));
        assert_eq!(rig.shared.stats.snapshot().conns_idle_reaped, 2);
    }

    #[test]
    fn slow_loris_header_drips_do_not_reset_the_idle_clock() {
        let idle = Duration::from_millis(50);
        let mut rig = rig_with(idle, 8, DEFAULT_WRITE_QUEUE_LIMIT);
        let frame = hello_frame();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        // One byte of the length prefix per readiness event — never a
        // complete frame.
        io.push_read(&frame[..1]);
        io.push_read(&frame[1..2]);
        io.push_read(&frame[2..3]);
        let (idx, gen, token) = rig.add_conn(io);
        let past = Instant::now() - idle * 2;
        rig.conn(idx, gen).last_activity = past;
        // Drip a byte: last_activity must NOT advance (no complete
        // frame), so the next sweep reaps the connection even though the
        // socket was "active" moments ago.
        rig.turn_with(vec![Event::readable(token)]);
        assert!(rig.conn(idx, gen).last_activity <= past + idle);
        rig.reactor.last_sweep = past;
        rig.turn_with(vec![]);
        assert!(!rig.is_open(idx, gen), "slow-loris client reaped");
        assert_eq!(rig.shared.stats.snapshot().conns_idle_reaped, 1);
    }

    #[test]
    fn full_job_queue_answers_busy_without_losing_the_connection() {
        let mut rig = rig_with(Duration::from_secs(60), 1, DEFAULT_WRITE_QUEUE_LIMIT);
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        io.push_read(&encode_frame(&proto::encode_request(KIND_DATA, 1, b"a")));
        io.push_read(&encode_frame(&proto::encode_request(KIND_DATA, 2, b"b")));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        // Depth-1 queue: the first job sits queued, the second gets BUSY
        // with its own seq echoed.
        assert_eq!(rig.sched.queued(), 1);
        let got = written.lock().unwrap().clone();
        let busy = encode_frame(&proto::encode_response(STATUS_BUSY, 2, &[]));
        assert_eq!(got, [ok_response(HELLO_SEQ, &[]), busy].concat());
        assert!(rig.is_open(idx, gen));
        assert_eq!(rig.shared.stats.snapshot().requests_busy, 1);
    }

    #[test]
    fn malformed_hello_answers_err_and_drains_closed() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&encode_frame(b"not a hello"));
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let expected = encode_frame(&proto::encode_response(
            STATUS_ERR,
            HELLO_SEQ,
            b"malformed hello",
        ));
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(
            !rig.is_open(idx, gen),
            "drained connection closes once the ERR flushes"
        );
        assert_eq!(rig.shared.stats.snapshot().requests_err, 1);
    }

    #[test]
    fn forged_length_prefix_answers_err_and_closes() {
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        let mut forged = hello_frame();
        forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        io.push_read(&forged);
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        assert!(!rig.is_open(idx, gen));
        let got = written.lock().unwrap().clone();
        let (_, body) = got.split_at(4);
        let (status, seq, msg) = proto::decode_response(body).expect("framed ERR");
        assert_eq!((status, seq), (STATUS_ERR, HELLO_SEQ));
        assert!(std::str::from_utf8(msg).unwrap().contains("exceeds limit"));
    }

    #[test]
    fn shutdown_stops_reads_flushes_and_exits_after_drain() {
        let mut rig = rig();
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        *cap.lock().unwrap() = 3; // force queued response bytes
        let (idx, gen, token) = rig.add_conn(io);
        assert!(rig.turn_with(vec![Event::readable(token)]));

        rig.shared.shutdown.request();
        assert!(rig.turn_with(vec![]), "drain not yet signalled");
        assert_eq!(
            rig.reactor.poller.interest_of(7),
            Some(Interest {
                readable: false,
                writable: true
            }),
            "shutdown stops reading but keeps flushing"
        );
        assert!(rig.reactor.job_tx.is_none(), "job sender dropped");

        // Peer drains; second shutdown phase: exit once queues empty.
        *cap.lock().unwrap() = usize::MAX;
        rig.reactor.drain_done.request();
        assert!(!rig.turn_with(vec![Event::writable(token)]));
        assert_eq!(*written.lock().unwrap(), ok_response(HELLO_SEQ, &[]));
        rig.reactor.close_all(CloseReason::Shutdown);
        assert!(!rig.is_open(idx, gen));
    }

    #[test]
    fn poison_completion_panics_the_reactor() {
        let mut rig = rig();
        rig.completions.post(POISON_TOKEN, OutMsg::raw(Vec::new()));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rig.reactor.poller.push_batch(vec![]);
            let mut events = Vec::new();
            rig.reactor.turn(&mut events)
        }));
        assert!(outcome.is_err(), "poison token must panic the loop");
    }

    #[test]
    fn conn_table_reuses_slots_with_fresh_generations() {
        let mut table = ConnTable::new();
        let (io_a, _, _) = ScriptIo::new(1);
        let (idx_a, gen_a) = table.insert(Conn::new(Box::new(io_a), 1024, None));
        assert!(table.remove(idx_a, gen_a).is_some());
        assert!(table.remove(idx_a, gen_a).is_none(), "double remove");
        let (io_b, _, _) = ScriptIo::new(2);
        let (idx_b, gen_b) = table.insert(Conn::new(Box::new(io_b), 1024, None));
        assert_eq!(idx_a, idx_b);
        assert_ne!(gen_a, gen_b);
        assert!(table.get_mut(idx_b, gen_a).is_none(), "stale gen rejected");
        assert!(table.get_mut(idx_b, gen_b).is_some());
        assert_eq!(table.open, 1);
    }

    #[test]
    fn partial_writev_resume_is_byte_identical_to_a_single_write() {
        // Reference stream: what the old contiguous-encode write path
        // would have produced for the same three responses.
        let expected = [
            ok_response(HELLO_SEQ, &[]),
            ok_response(1, b"first-result"),
            ok_response(2, b"second-response"),
        ]
        .concat();

        let mut rig = rig();
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        *cap.lock().unwrap() = 0; // kernel takes nothing yet
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        post_ok(&rig.completions, token, 1, b"first-result");
        post_ok(&rig.completions, token, 2, b"second-response");
        rig.turn_with(vec![]);
        assert!(written.lock().unwrap().is_empty());

        // Open the valve five bytes per EPOLLOUT: every resume lands at
        // an arbitrary split point — mid-head, mid-payload, across
        // message boundaries — and the cursor must carry over exactly.
        let mut guard = 0;
        while rig.conn(idx, gen).pending_write_bytes() > 0 {
            *cap.lock().unwrap() = 5;
            rig.turn_with(vec![Event::writable(token)]);
            guard += 1;
            assert!(guard < 100, "flush must make progress");
        }
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn queued_responses_flush_in_one_gather_write() {
        let mut rig = rig();
        let (mut io, written, cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        written.lock().unwrap().clear();

        // Valve shut: three completions pile up in the write queue.
        *cap.lock().unwrap() = 0;
        for seq in 1..=3 {
            post_ok(&rig.completions, token, seq, b"payload");
        }
        rig.turn_with(vec![]);
        assert!(written.lock().unwrap().is_empty());
        let before = rig.shared.stats.snapshot();

        // Valve opens: a single writev carries all three messages.
        *cap.lock().unwrap() = usize::MAX;
        rig.turn_with(vec![Event::writable(token)]);
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.writev_calls, before.writev_calls + 1);
        assert_eq!(snap.writev_frames, before.writev_frames + 3);
        let expected: Vec<u8> = (1..=3).flat_map(|s| ok_response(s, b"payload")).collect();
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn completions_drained_together_share_one_writev() {
        // No kernel pushback needed: completions that arrive in the same
        // drain are queued first and flushed once, so an open valve still
        // sees a single gather write for the whole batch.
        let mut rig = rig();
        let (mut io, written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (idx, gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        written.lock().unwrap().clear();
        let before = rig.shared.stats.snapshot();

        for seq in 1..=3 {
            post_ok(&rig.completions, token, seq, b"payload");
        }
        rig.turn_with(vec![Event::readable(WAKE_TOKEN)]);
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.writev_calls, before.writev_calls + 1);
        assert_eq!(snap.writev_frames, before.writev_frames + 3);
        let expected: Vec<u8> = (1..=3).flat_map(|s| ok_response(s, b"payload")).collect();
        assert_eq!(*written.lock().unwrap(), expected);
        assert!(rig.is_open(idx, gen));
    }

    #[test]
    fn worker_wakeups_coalesce_into_one_pipe_drain() {
        let mut rig = rig();
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        let (_idx, _gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        // Three completions post three pipe notifications before the
        // reactor polls again; one WAKE readiness drains them with a
        // single read.
        for seq in 1..=3 {
            post_ok(&rig.completions, token, seq, b"r");
        }
        rig.turn_with(vec![Event::readable(WAKE_TOKEN)]);
        let snap = rig.shared.stats.snapshot();
        assert_eq!(snap.reactor_wakeups, 1);
        assert_eq!(snap.wakeups_coalesced, 2);
    }

    #[test]
    fn pooled_request_payloads_are_zero_copy_and_recycled() {
        let mut rig = rig();
        let pool = rig.reactor.opts.pool.clone().expect("rig is pooled");
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        io.push_read(&encode_frame(&proto::encode_request(
            KIND_DATA, 1, b"needle",
        )));
        let (_idx, _gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let job = rig.sched.try_next(0).expect("job queued");
        assert_eq!(&job.payload[..], b"needle");
        // The payload is a sliced view of the decoder's pool buffer —
        // nothing was memcpy'd on the request path.
        assert_eq!(rig.shared.stats.snapshot().bytes_copied, 0);
        let before = pool.counters().recycles;
        drop(job);
        assert_eq!(
            pool.counters().recycles,
            before + 1,
            "dropping the job returns the frame buffer to the pool"
        );
    }

    #[test]
    fn owned_buffer_fallback_copies_and_counts_request_payloads() {
        let mut rig = rig();
        rig.reactor.opts.pool = None;
        let (mut io, _written, _cap) = ScriptIo::new(7);
        io.push_read(&hello_frame());
        io.push_read(&encode_frame(&proto::encode_request(
            KIND_DATA, 1, b"needle",
        )));
        let (_idx, _gen, token) = rig.add_conn(io);
        rig.turn_with(vec![Event::readable(token)]);
        let job = rig.sched.try_next(0).expect("job queued");
        assert_eq!(&job.payload[..], b"needle");
        assert_eq!(
            rig.shared.stats.snapshot().bytes_copied,
            6,
            "the fallback copies the payload out of the frame and counts it"
        );
    }
}
