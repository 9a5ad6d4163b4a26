//! A `Transport` wrapper around `TcpTransport` that counts rounds and
//! bytes, times each round trip as a child span of the open user op, and
//! (when tracing) logs every request so the handler layer can be replayed
//! in process afterwards.

use crate::trace::Tracer;
use sse_net::link::Transport;
use sse_server::proto::{SchemeId, KIND_DATA, KIND_SEARCH_MANY, KIND_UPDATE_MANY};
use sse_server::TcpTransport;
use std::io::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One request as the daemon received it, in global send order.
#[derive(Clone, Debug)]
pub struct Recorded {
    pub seq: u64,
    pub tenant: String,
    pub scheme: SchemeId,
    /// Envelope kind: `KIND_DATA`, `KIND_UPDATE_MANY` or `KIND_SEARCH_MANY`.
    pub kind: u8,
    pub parts: Vec<Vec<u8>>,
    pub rtt_ns: u64,
    pub op: u64,
    /// Name of the user op that sent it (`op.search`, `op.update`, ...).
    pub op_name: &'static str,
}

pub struct Tap {
    inner: TcpTransport,
    tracer: Tracer,
    order: Arc<AtomicU64>,
    tenant: String,
    scheme: SchemeId,
    pub rounds: u64,
    pub bytes_up: u64,
    pub bytes_down: u64,
    /// Keep every request for the handler replay (traced runs only).
    pub logging: bool,
    pub log: Vec<Recorded>,
    /// Keep `(request, response)` pairs of plain rounds (search capture).
    pub capture: Option<Vec<(Vec<u8>, Vec<u8>)>>,
}

impl Tap {
    pub fn new(
        inner: TcpTransport,
        tracer: Tracer,
        order: Arc<AtomicU64>,
        tenant: &str,
        scheme: SchemeId,
    ) -> Tap {
        Tap {
            inner,
            tracer,
            order,
            tenant: tenant.to_string(),
            scheme,
            rounds: 0,
            bytes_up: 0,
            bytes_down: 0,
            logging: false,
            log: Vec::new(),
            capture: None,
        }
    }

    pub fn busy_retries(&self) -> u64 {
        self.inner.busy_retries() + self.inner.degraded_retries()
    }

    /// Run one round through `call`; `parts` materialises the request
    /// parts for the replay log only when tracing.
    fn timed<F, P>(&mut self, kind: u8, up: u64, parts: P, call: F) -> Result<Vec<Vec<u8>>>
    where
        F: FnOnce(&mut TcpTransport) -> Result<Vec<Vec<u8>>>,
        P: FnOnce() -> Vec<Vec<u8>>,
    {
        let seq = self.order.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = call(&mut self.inner);
        let end = Instant::now();
        self.rounds += 1;
        self.bytes_up += up;
        if let Ok(responses) = &result {
            // UPDATE_MANY replicates its single ack per part; count it once.
            let down: u64 = match kind {
                KIND_UPDATE_MANY => responses.first().map_or(0, |r| r.len() as u64),
                _ => responses.iter().map(|r| r.len() as u64).sum(),
            };
            self.bytes_down += down;
        }
        let mut trace = self.tracer.lock().expect("trace log poisoned");
        trace.child("transport.round_trip", start, end);
        if self.logging {
            self.log.push(Recorded {
                seq,
                tenant: self.tenant.clone(),
                scheme: self.scheme,
                kind,
                parts: parts(),
                rtt_ns: end.duration_since(start).as_nanos() as u64,
                op: trace.op_id(),
                op_name: trace.op_name(),
            });
        }
        result
    }
}

impl Transport for Tap {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        let up = request.len() as u64;
        let response = self
            .timed(
                KIND_DATA,
                up,
                || vec![request.to_vec()],
                |t| t.round_trip(request).map(|r| vec![r]),
            )
            .map(|mut r| r.remove(0))?;
        if let Some(capture) = &mut self.capture {
            capture.push((request.to_vec(), response.clone()));
        }
        Ok(response)
    }

    // Forwarded explicitly: the trait defaults would turn UPDATE_MANY and
    // SEARCH_MANY into sequential single rounds.
    fn round_trip_batch(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        self.timed(
            KIND_UPDATE_MANY,
            total_len(parts),
            || parts.to_vec(),
            |t| t.round_trip_batch(parts),
        )
    }

    fn round_trip_search_batch(&mut self, parts: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        self.timed(
            KIND_SEARCH_MANY,
            total_len(parts),
            || parts.to_vec(),
            |t| t.round_trip_search_batch(parts),
        )
    }
}

fn total_len(parts: &[Vec<u8>]) -> u64 {
    parts.iter().map(|p| p.len() as u64).sum()
}
