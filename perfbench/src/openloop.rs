//! Open-loop load over pipelined raw connections.
//!
//! Requests are due on a fixed schedule (Poisson arrivals). One sender
//! thread writes each request when it is due — or as soon after as the
//! per-connection window allows — and one receiver thread reads every
//! response through epoll. Latency runs from the *scheduled* time, so a
//! stall that holds the sender back is charged to every request due
//! behind it (no coordinated omission); how late the sender ran is
//! reported separately.

use epoll::{Event, Interest, Poller, RealPoller};
use sse_net::frame::{encode_frame, FrameDecoder};
use sse_server::proto::{self, Hello, SchemeId, HELLO_SEQ, KIND_DATA, STATUS_BUSY, STATUS_OK};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sentinel completion time: the request failed or never completed.
pub const FAILED: u64 = u64::MAX;

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    /// Due time, ns after the phase starts.
    pub at_ns: u64,
    pub conn: usize,
    /// Index into that connection's captured requests.
    pub req: usize,
}

/// What happened to each planned request (indexed like the plan).
pub struct Outcome {
    /// Completion time (ns after phase start) or [`FAILED`].
    pub done_ns: Vec<u64>,
    /// When the sender actually wrote the request (first attempt).
    pub sent_ns: Vec<u64>,
    pub mismatches: usize,
    pub busy_resends: u64,
}

impl Outcome {
    /// Latency from the scheduled time, or `None` for a failed request.
    pub fn latency_ns(&self, plan: &[Planned], i: usize) -> Option<u64> {
        (self.done_ns[i] != FAILED).then(|| self.done_ns[i].saturating_sub(plan[i].at_ns))
    }

    pub fn failed(&self) -> usize {
        self.done_ns.iter().filter(|d| **d == FAILED).count()
    }
}

/// A Poisson schedule of `duration` at `rate` requests/s, spreading
/// requests over connections and picking each from `pick`.
pub fn poisson_plan(
    rng: &mut crate::stats::Rng,
    rate: f64,
    duration: Duration,
    conns: usize,
    mut pick: impl FnMut(&mut crate::stats::Rng) -> usize,
) -> Vec<Planned> {
    let end = duration.as_nanos() as u64;
    let mut at = 0;
    let mut plan = Vec::new();
    loop {
        at += rng.exp_gap_ns(rate);
        if at >= end {
            return plan;
        }
        let conn = rng.below(conns);
        plan.push(Planned {
            at_ns: at,
            conn,
            req: pick(rng),
        });
    }
}

/// Dial the daemon and complete the hello handshake on a raw socket.
pub fn open_raw(addr: &str, tenant: &str, scheme: SchemeId) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let hello = Hello {
        tenant: tenant.to_string(),
        scheme,
    };
    stream
        .write_all(&encode_frame(&hello.encode()))
        .map_err(|e| format!("hello: {e}"))?;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 256];
    loop {
        if let Some(frame) = decoder.next_frame().map_err(|e| e.to_string())? {
            return match proto::decode_response(&frame) {
                Some((STATUS_OK, HELLO_SEQ, _)) => Ok(stream),
                _ => Err("hello rejected".to_string()),
            };
        }
        let n = stream.read(&mut buf).map_err(|e| format!("hello: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection during hello".to_string());
        }
        decoder.push(&buf[..n]);
    }
}

/// Per-connection inputs: the captured request payloads and the response
/// payload the daemon gave each of them at capture time.
pub struct Captured {
    pub requests: Vec<Vec<u8>>,
    pub expected: Vec<Vec<u8>>,
}

struct Shared {
    done_ns: Vec<AtomicU64>,
    completed: Vec<AtomicUsize>,
    resend: Mutex<Vec<usize>>,
    resend_pending: AtomicBool,
    stop: AtomicBool,
    mismatches: AtomicUsize,
    busy: AtomicU64,
}

/// Run `plan` over `streams` (already past hello), at most `window`
/// requests in flight per connection. Requests still unanswered
/// `drain` after the last one was due count as failed.
pub fn run(
    streams: &[TcpStream],
    captured: &[Captured],
    plan: &[Planned],
    window: usize,
    drain: Duration,
) -> Result<Outcome, String> {
    let shared = Arc::new(Shared {
        done_ns: (0..plan.len()).map(|_| AtomicU64::new(FAILED)).collect(),
        completed: (0..streams.len()).map(|_| AtomicUsize::new(0)).collect(),
        resend: Mutex::new(Vec::new()),
        resend_pending: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        mismatches: AtomicUsize::new(0),
        busy: AtomicU64::new(0),
    });
    let mut writers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let readers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    // Pre-encode every captured request once; the sequence number (the
    // plan index + 1) is patched in at send time.
    let frames: Vec<Vec<Vec<u8>>> = captured
        .iter()
        .map(|c| {
            c.requests
                .iter()
                .map(|r| encode_frame(&proto::encode_request(KIND_DATA, 0, r)))
                .collect()
        })
        .collect();
    let last_due = plan.last().map_or(0, |p| p.at_ns);
    let start = Instant::now();
    let deadline = start + Duration::from_nanos(last_due) + drain;

    let receiver = {
        let shared = shared.clone();
        let expected: Vec<Vec<Vec<u8>>> = captured.iter().map(|c| c.expected.clone()).collect();
        let plan = plan.to_vec();
        std::thread::spawn(move || receive(readers, &shared, &plan, &expected, start, deadline))
    };

    precise_sleeps();
    let mut sent_ns = vec![FAILED; plan.len()];
    let mut in_flight_sent = vec![0usize; streams.len()];
    let mut send = |i: usize, writers: &mut [TcpStream]| -> bool {
        let p = plan[i];
        let mut frame = frames[p.conn][p.req].clone();
        frame[5..9].copy_from_slice(&((i + 1) as u32).to_le_bytes());
        write_fully(&mut writers[p.conn], &frame)
    };
    'plan: for (i, p) in plan.iter().enumerate() {
        let due = start + Duration::from_nanos(p.at_ns);
        loop {
            if shared.stop.load(Ordering::Acquire) {
                break 'plan;
            }
            resend_busy(&shared, &mut send, &mut writers);
            let in_flight =
                in_flight_sent[p.conn] - shared.completed[p.conn].load(Ordering::Acquire);
            let now = Instant::now();
            if now >= due && in_flight < window {
                break;
            }
            if now >= deadline {
                break 'plan;
            }
            // Sleep rather than spin: a spinning sender would take a core
            // from the daemon. Waiting on a full window polls every 20 us.
            let wait = due.saturating_duration_since(now);
            std::thread::sleep(if in_flight < window {
                wait
            } else {
                Duration::from_micros(20)
            });
        }
        sent_ns[i] = start.elapsed().as_nanos() as u64;
        in_flight_sent[p.conn] += 1;
        if !send(i, &mut writers) {
            break;
        }
    }
    // Keep serving BUSY re-sends until every response is in.
    while !shared.stop.load(Ordering::Acquire) && Instant::now() < deadline {
        resend_busy(&shared, &mut send, &mut writers);
        std::thread::sleep(Duration::from_micros(200));
    }
    let _ = receiver.join();
    Ok(Outcome {
        done_ns: shared
            .done_ns
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .collect(),
        sent_ns,
        mismatches: shared.mismatches.load(Ordering::Acquire),
        busy_resends: shared.busy.load(Ordering::Acquire),
    })
}

/// `write_all` for a socket the receiver has switched to non-blocking
/// mode (the flag is shared by every clone of the socket).
fn write_fully(stream: &mut TcpStream, mut buf: &[u8]) -> bool {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return false,
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Shrink this thread's timer slack to 1 ns so a paced sleep wakes when
/// asked instead of up to 50 us late (the Linux default slack).
fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack; no memory is passed.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

fn resend_busy(
    shared: &Shared,
    send: &mut impl FnMut(usize, &mut [TcpStream]) -> bool,
    writers: &mut [TcpStream],
) {
    if shared.resend_pending.swap(false, Ordering::AcqRel) {
        let pending = std::mem::take(&mut *shared.resend.lock().expect("resend queue poisoned"));
        for i in pending {
            send(i, writers);
        }
    }
}

fn receive(
    mut readers: Vec<TcpStream>,
    shared: &Shared,
    plan: &[Planned],
    expected: &[Vec<Vec<u8>>],
    start: Instant,
    deadline: Instant,
) {
    let finish = || shared.stop.store(true, Ordering::Release);
    let Ok(mut poller) = RealPoller::new() else {
        return finish();
    };
    for (token, r) in readers.iter().enumerate() {
        if r.set_nonblocking(true).is_err()
            || poller
                .register(r.as_raw_fd(), token as u64, Interest::READABLE)
                .is_err()
        {
            return finish();
        }
    }
    let mut decoders: Vec<FrameDecoder> = readers.iter().map(|_| FrameDecoder::new()).collect();
    let mut events: Vec<Event> = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut answered = 0usize;
    while answered < plan.len() && Instant::now() < deadline {
        events.clear();
        if poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .is_err()
        {
            break;
        }
        for ev in &events {
            let c = ev.token as usize;
            loop {
                match readers[c].read(&mut buf) {
                    Ok(0) => return finish(), // the daemon hung up (ERR closes)
                    Ok(n) => decoders[c].push(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return finish(),
                }
            }
            while let Ok(Some(frame)) = decoders[c].next_frame() {
                let now = start.elapsed().as_nanos() as u64;
                let Some((status, seq, payload)) = proto::decode_response(&frame) else {
                    return finish();
                };
                let Some(i) = (seq as usize).checked_sub(1).filter(|i| *i < plan.len()) else {
                    return finish();
                };
                if status == STATUS_BUSY {
                    shared.busy.fetch_add(1, Ordering::Relaxed);
                    shared.resend.lock().expect("resend queue poisoned").push(i);
                    shared.resend_pending.store(true, Ordering::Release);
                    continue;
                }
                answered += 1;
                if status == STATUS_OK {
                    if payload == expected[c][plan[i].req].as_slice() {
                        shared.done_ns[i].store(now, Ordering::Release);
                    } else {
                        shared.mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                shared.completed[c].fetch_add(1, Ordering::AcqRel);
            }
        }
    }
    finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted daemon: answers hello, then echoes "ok" for each
    /// request in order, stalling once before answering request `stall_at`.
    fn scripted_daemon(stall_at: u32, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.set_nodelay(true).unwrap();
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            let mut hello_done = false;
            loop {
                while let Ok(Some(frame)) = decoder.next_frame() {
                    let seq = if hello_done {
                        proto::decode_request(&frame).unwrap().1
                    } else {
                        hello_done = true;
                        HELLO_SEQ
                    };
                    if seq == stall_at {
                        std::thread::sleep(stall);
                    }
                    let body = proto::encode_response(STATUS_OK, seq, b"ok");
                    conn.write_all(&encode_frame(&body)).unwrap();
                }
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => decoder.push(&buf[..n]),
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stalled_response_makes_later_requests_late() {
        let stall = Duration::from_millis(60);
        let (addr, daemon) = scripted_daemon(21, stall);
        let stream = open_raw(&addr, "t", SchemeId::Scheme2).unwrap();
        let captured = [Captured {
            requests: vec![b"q".to_vec()],
            expected: vec![b"ok".to_vec()],
        }];
        // 200 requests, one every 0.5 ms: ~120 of them are due while
        // request 21 (index 20) is stalled.
        let plan: Vec<Planned> = (0..200)
            .map(|i| Planned {
                at_ns: i * 500_000,
                conn: 0,
                req: 0,
            })
            .collect();
        let out = run(&[stream], &captured, &plan, 4, Duration::from_secs(5)).unwrap();
        daemon.join().unwrap();
        assert_eq!(out.failed(), 0);
        assert_eq!(out.mismatches, 0);
        let from_schedule: Vec<u64> = (0..plan.len())
            .map(|i| out.latency_ns(&plan, i).unwrap())
            .collect();
        let from_send: Vec<u64> = (0..plan.len())
            .map(|i| out.done_ns[i] - out.sent_ns[i])
            .collect();
        let slow = |v: &[u64]| v.iter().filter(|ns| **ns > 10_000_000).count();
        // Every request due in the first 50 ms of the stall is charged
        // for it, although the window held all but a handful back.
        assert!(slow(&from_schedule) >= 100, "{}", slow(&from_schedule));
        assert!(slow(&from_send) <= 5, "{}", slow(&from_send));
        // The sender itself ran late behind the stall.
        let max_late = (0..plan.len())
            .map(|i| out.sent_ns[i] - plan[i].at_ns)
            .max()
            .unwrap();
        assert!(max_late >= 40_000_000, "{max_late}");
    }

    #[test]
    fn a_mismatched_response_is_counted_and_not_timed() {
        let (addr, daemon) = scripted_daemon(u32::MAX, Duration::ZERO);
        let stream = open_raw(&addr, "t", SchemeId::Scheme2).unwrap();
        let captured = [Captured {
            requests: vec![b"q".to_vec()],
            expected: vec![b"not ok".to_vec()],
        }];
        let plan = [Planned {
            at_ns: 0,
            conn: 0,
            req: 0,
        }];
        let out = run(&[stream], &captured, &plan, 1, Duration::from_secs(2)).unwrap();
        daemon.join().unwrap();
        assert_eq!(out.mismatches, 1);
        assert_eq!(out.failed(), 1);
    }
}
