//! Closed-loop load: each client thread starts its next op only after
//! the previous one completed, for a fixed wall-clock window.

use crate::stats::Samples;
use crate::tap::Tap;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Search,
    Update,
}

impl Kind {
    pub fn span(self) -> &'static str {
        match self {
            Kind::Search => "op.search",
            Kind::Update => "op.update",
        }
    }
}

/// One simulated user: a scheme client plus its op generator and answer
/// oracle.
pub trait User: Send + 'static {
    /// The op [`User::run_op`] will run next, or `None` when the
    /// client's budget (chain counters, id capacity) is spent.
    fn next_kind(&mut self) -> Option<Kind>;
    /// Run the op (timed). `Err` is a failed op.
    fn run_op(&mut self) -> Result<(), String>;
    /// Check the op's answer against the oracle (not timed). `Err` is a
    /// wrong answer.
    fn verify(&mut self) -> Result<(), String>;
    fn tap(&mut self) -> &mut Tap;
    fn tracer(&self) -> &Tracer;
}

/// Totals of one closed-loop window. In a traced window every other op
/// of each client is traced; the latencies of traced ops are kept apart,
/// so traced and untraced ops sample the same stretch of the run.
#[derive(Default)]
pub struct Window {
    pub search: Samples,
    pub update: Samples,
    pub traced_search: Samples,
    pub traced_update: Samples,
    /// Summed latency and count of untraced (`[0]`) and traced (`[1]`) ops.
    latency_ns: [u64; 2],
    timed: [u64; 2],
    pub ops: u64,
    pub failed: u64,
    pub elapsed: Duration,
    pub searches: u64,
    pub updates: u64,
    pub search_rounds: u64,
    pub search_bytes_down: u64,
    pub update_bytes_up: u64,
    pub busy_retries: u64,
    /// A client ran out of budget before the window ended.
    pub exhausted: bool,
    pub errors: Vec<String>,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.search.extend(&other.search);
        self.update.extend(&other.update);
        self.traced_search.extend(&other.traced_search);
        self.traced_update.extend(&other.traced_update);
        for i in 0..2 {
            self.latency_ns[i] += other.latency_ns[i];
            self.timed[i] += other.timed[i];
        }
        self.ops += other.ops;
        self.failed += other.failed;
        self.searches += other.searches;
        self.updates += other.updates;
        self.search_rounds += other.search_rounds;
        self.search_bytes_down += other.search_bytes_down;
        self.update_bytes_up += other.update_bytes_up;
        self.busy_retries += other.busy_retries;
        self.exhausted |= other.exhausted;
        self.errors.extend(other.errors);
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Throughput `clients` closed-loop clients would reach at the mean
    /// latency of the untraced or the traced ops (Little's law).
    pub fn implied_ops_per_s(&self, traced: bool, clients: usize) -> f64 {
        let i = usize::from(traced);
        let mean_s = self.latency_ns[i] as f64 / self.timed[i].max(1) as f64 / 1e9;
        clients as f64 / mean_s.max(1e-12)
    }
}

fn drive_one<D: User>(user: &mut D, until: Instant, alternate: bool) -> Window {
    let mut w = Window::default();
    let busy0 = user.tap().busy_retries();
    let mut n = 0u64;
    while Instant::now() < until {
        let traced = alternate && n % 2 == 1;
        n += 1;
        if alternate {
            user.tracer()
                .lock()
                .expect("trace log poisoned")
                .set_enabled(traced);
        }
        let Some(kind) = user.next_kind() else {
            w.exhausted = true;
            break;
        };
        let tap = user.tap();
        let (rounds0, up0, down0) = (tap.rounds, tap.bytes_up, tap.bytes_down);
        let start = Instant::now();
        user.tracer()
            .lock()
            .expect("trace log poisoned")
            .begin_op(kind.span(), start);
        let result = user.run_op();
        let end = Instant::now();
        let result = result.and_then(|()| user.verify());
        user.tracer()
            .lock()
            .expect("trace log poisoned")
            .end_op(end);
        let ns = end.duration_since(start).as_nanos() as u64;
        w.ops += 1;
        w.latency_ns[usize::from(traced)] += ns;
        w.timed[usize::from(traced)] += 1;
        let tap = user.tap();
        match kind {
            Kind::Search => {
                w.searches += 1;
                w.search_rounds += tap.rounds - rounds0;
                w.search_bytes_down += tap.bytes_down - down0;
            }
            Kind::Update => {
                w.updates += 1;
                w.update_bytes_up += tap.bytes_up - up0;
            }
        }
        match result {
            Ok(()) => match (kind, traced) {
                (Kind::Search, false) => w.search.push(ns),
                (Kind::Update, false) => w.update.push(ns),
                (Kind::Search, true) => w.traced_search.push(ns),
                (Kind::Update, true) => w.traced_update.push(ns),
            },
            Err(e) => {
                w.failed += 1;
                if w.errors.len() < 3 {
                    w.errors.push(e);
                }
            }
        }
    }
    w.busy_retries = user.tap().busy_retries() - busy0;
    if alternate {
        user.tracer()
            .lock()
            .expect("trace log poisoned")
            .set_enabled(false);
    }
    w
}

/// Run every user on its own thread for `duration` (tracing every other
/// op when `alternate`); return them with the merged totals.
pub fn run<D: User>(users: Vec<D>, duration: Duration, alternate: bool) -> (Vec<D>, Window) {
    let start = Instant::now();
    let until = start + duration;
    let handles: Vec<_> = users
        .into_iter()
        .map(|mut d| {
            std::thread::spawn(move || {
                let w = drive_one(&mut d, until, alternate);
                (d, w)
            })
        })
        .collect();
    let mut total = Window::default();
    let mut back = Vec::new();
    for h in handles {
        let (d, w) = h.join().expect("client thread panicked");
        back.push(d);
        total.absorb(w);
    }
    total.elapsed = start.elapsed();
    (back, total)
}
