//! `search_open`: open-loop Poisson search load on the serving stack.
//!
//! Set-up preloads two in-memory tenants with a large-vocabulary Zipf
//! corpus through real Scheme 2 clients, then captures one search request
//! (and its response) per query keyword. The timed phase replays those
//! requests — searches are read-only, so a replay is legal — over two
//! pipelined raw connections at fixed Poisson rates. No client crypto and
//! no storage run, so the load falls on the reactor, buffer pool,
//! scheduler and a handler serving memo hits.

use crate::daemon::{self, Daemon};
use crate::layers::{self, LayerInputs};
use crate::openloop::{self, Captured, Outcome, Planned, FAILED};
use crate::session::{self, Session};
use crate::stats::{Rng, Samples, ZipfTable};
use crate::tap::{Recorded, Tap};
use crate::trace::{Span, TraceLog};
use crate::{e2e, print_overhead, replay, report_spans, Ctx, RunOut};
use sse_core::scheme2::{Scheme2Client, Scheme2Config};
use sse_core::types::{Document, MasterKey};
use sse_phr::workload::{generate_corpus, CorpusConfig};
use sse_server::proto::{SchemeId, KIND_DATA};
use sse_server::tenant::TenantParams;
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 2;
const VOCABULARY: usize = 2000;
const DOCS: usize = 1000;
/// Distinct query keywords captured per tenant.
const QUERIES: usize = 256;
/// Hash-chain length for client and daemon (`--scheme2-chain`): the
/// workload stores without searching in between, so the counter never
/// passes 1 and a short chain keeps set-up cheap for a large vocabulary.
const CHAIN: u64 = 256;
/// Requests in flight per connection: together they fit the daemon's
/// default run queues (64 slots), so a burst is queued, not refused.
const WINDOW: usize = 32;
/// Light-load rate at which the latency metrics are taken.
const REFERENCE_RATE: f64 = 3000.0;
/// The sweep starts here and raises the offered rate by [`SWEEP_GROWTH`]
/// per step until one misses the limit.
const SWEEP_START: f64 = 4000.0;
const SWEEP_GROWTH: f64 = 1.35;
/// Step attempts in the sweep, which takes half the run.
const SWEEP_STEPS: u32 = 14;
/// The latency limit on p99 (from the scheduled send time). It sits
/// above the scheduling stalls of up to ~10 ms that a shared virtual
/// machine shows at any load, and far below the queueing delay past the
/// knee.
const P99_LIMIT_US: f64 = 10_000.0;
/// Answers still missing this long after the last request was due fail.
const DRAIN: Duration = Duration::from_secs(3);

struct OpenState {
    streams: Vec<TcpStream>,
    captured: Vec<Captured>,
    tenants: Vec<String>,
    preload: Samples,
    log: Vec<Recorded>,
    user_bytes: u64,
    next_seq: Arc<AtomicU64>,
}

fn tenant_corpus(seed: u64, t: usize) -> Vec<Document> {
    generate_corpus(&CorpusConfig {
        docs: DOCS,
        vocab_size: VOCABULARY,
        zipf_s: 1.0,
        keywords_per_doc: (2, 6),
        payload_bytes: 48,
        seed: seed ^ ((t as u64 + 1) << 32),
    })
}

/// Preload one tenant with single-record stores (each one timed), then
/// capture one search per query keyword, checking every answer against
/// the corpus.
fn load_tenant(
    addr: &str,
    tenant: &str,
    seed: u64,
    t: usize,
    order: Arc<AtomicU64>,
    logging: bool,
) -> Result<(Captured, Samples, Vec<Recorded>, u64), String> {
    let tracer = TraceLog::tracer(false, Instant::now(), 0);
    let transport = sse_server::TcpTransport::connect(addr, tenant, SchemeId::Scheme2)
        .map_err(|e| format!("connect: {e}"))?;
    let mut tap = Tap::new(transport, tracer, order, tenant, SchemeId::Scheme2);
    tap.logging = logging;
    let config = Scheme2Config::standard().with_chain_length(CHAIN);
    let mut client = Scheme2Client::new_seeded(
        tap,
        MasterKey::from_seed(seed ^ 0x0E7E ^ t as u64),
        config,
        seed,
    );
    let corpus = tenant_corpus(seed, t);
    let mut expected: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    let mut stores = Samples::new();
    let mut user_bytes = 0;
    for doc in &corpus {
        let start = Instant::now();
        client
            .store(std::slice::from_ref(doc))
            .map_err(|e| format!("preload store: {e}"))?;
        stores.push(start.elapsed().as_nanos() as u64);
        user_bytes += doc.data.len() as u64;
        for kw in &doc.keywords {
            expected
                .entry(kw.as_str().to_string())
                .or_default()
                .insert(doc.id);
        }
    }
    let mut rng = Rng::new(seed ^ 0xCA97 ^ t as u64);
    let mut pool: Vec<String> = sse_phr::codes::synthetic_vocabulary(VOCABULARY);
    // A seeded partial shuffle picks the query keywords; popularity is
    // given to them by the replay's Zipf draw, not by their corpus rank.
    for i in 0..QUERIES {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    client.transport_mut().capture = Some(Vec::new());
    for word in &pool[..QUERIES] {
        let hits = client
            .search(&sse_core::types::Keyword::new(word.as_str()))
            .map_err(|e| format!("capture search: {e}"))?;
        let got: BTreeSet<u64> = hits.iter().map(|(id, _)| *id).collect();
        let want = expected.get(word).cloned().unwrap_or_default();
        if got != want {
            return Err(format!(
                "capture oracle: {word} returned {} ids, {} stored",
                got.len(),
                want.len()
            ));
        }
        let doc_ok = hits
            .iter()
            .all(|(id, data)| corpus[*id as usize].data == *data);
        if !doc_ok {
            return Err(format!("capture oracle: {word} returned a wrong payload"));
        }
    }
    let tap = client.transport_mut();
    let pairs = tap.capture.take().unwrap_or_default();
    let log = std::mem::take(&mut tap.log);
    let (requests, expected) = pairs.into_iter().unzip();
    Ok((Captured { requests, expected }, stores, log, user_bytes))
}

fn setup(ctx: &Ctx, epoch: Instant) -> Result<Session<OpenState>, String> {
    let chain = CHAIN.to_string();
    let args = ctx.daemon_args(&["--scheme2-chain", &chain]);
    let daemon = Daemon::spawn(&ctx.daemon, &args)?;
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("open-{t}")).collect();
    let order = Arc::new(AtomicU64::new(0));
    let loaded: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(t, tenant)| {
                let (addr, order) = (daemon.addr.clone(), order.clone());
                s.spawn(move || load_tenant(&addr, tenant, ctx.seed, t, order, ctx.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect()
    });
    let mut state = OpenState {
        streams: Vec::new(),
        captured: Vec::new(),
        tenants: tenants.clone(),
        preload: Samples::new(),
        log: Vec::new(),
        user_bytes: 0,
        next_seq: order,
    };
    for result in loaded {
        let (captured, stores, mut log, bytes) = result?;
        state.captured.push(captured);
        state.preload.extend(&stores);
        state.log.append(&mut log);
        state.user_bytes += bytes;
    }
    for tenant in &tenants {
        state
            .streams
            .push(openloop::open_raw(&daemon.addr, tenant, SchemeId::Scheme2)?);
    }
    Ok(Session {
        admin: daemon.connect(&tenants[0], SchemeId::Scheme2)?,
        daemon,
        state,
        dir: None,
        epoch,
    })
}

/// One fixed-rate step: its plan, outcome and derived figures.
struct Step {
    plan: Vec<Planned>,
    out: Outcome,
}

impl Step {
    fn latencies(&self) -> Samples {
        let mut s = Samples::new();
        for i in 0..self.plan.len() {
            if let Some(ns) = self.out.latency_ns(&self.plan, i) {
                s.push(ns);
            }
        }
        s
    }

    fn lateness(&self) -> Samples {
        let mut s = Samples::new();
        for (p, sent) in self.plan.iter().zip(&self.out.sent_ns) {
            if *sent != FAILED {
                s.push(sent.saturating_sub(p.at_ns));
            }
        }
        s
    }

    fn bad(&self) -> usize {
        self.out.failed()
    }

    /// Completed requests per second over the step's schedule.
    fn achieved(&self, duration: Duration) -> f64 {
        (self.plan.len() - self.bad()) as f64 / duration.as_secs_f64()
    }

    /// Share of requests that missed the latency limit, failures
    /// included: the step meets the p99 limit exactly when it is <= 1%.
    fn late_share(&self) -> f64 {
        let limit = (P99_LIMIT_US * 1e3) as u64;
        let late = (0..self.plan.len())
            .filter(|&i| {
                self.out
                    .latency_ns(&self.plan, i)
                    .is_none_or(|ns| ns > limit)
            })
            .count();
        late as f64 / self.plan.len().max(1) as f64
    }

    /// No growing backlog: over the last quarter of the schedule the
    /// sender's median lateness stays within the limit.
    fn kept_up(&self) -> bool {
        let from = self.plan.len() * 3 / 4;
        let mut late = Samples::new();
        for (p, sent) in self.plan[from..].iter().zip(&self.out.sent_ns[from..]) {
            late.push(sent.saturating_sub(p.at_ns));
        }
        late.quantile_us(0.5) <= P99_LIMIT_US
    }

    fn passes(&self) -> bool {
        self.late_share() <= 0.01 && self.kept_up()
    }
}

fn step(s: &OpenState, rng: &mut Rng, rate: f64, duration: Duration) -> Result<Step, String> {
    let zipf = ZipfTable::new(QUERIES, 1.0);
    let plan = openloop::poisson_plan(rng, rate, duration, s.streams.len(), |r| zipf.sample(r));
    let out = openloop::run(&s.streams, &s.captured, &plan, WINDOW, DRAIN)?;
    Ok(Step { plan, out })
}

/// Sweep the offered rate upward until a step misses the limit; a miss
/// is retried once, so one scheduling stall of the host cannot end the
/// sweep. The sustained rate interpolates linearly, on the share of late
/// requests, between the last passing and the failing step's achieved
/// throughput to where that share crosses 1%.
fn sweep(s: &OpenState, rng: &mut Rng, duration: Duration) -> Result<(f64, u64, u64), String> {
    let per_step = duration / SWEEP_STEPS;
    let (mut attempted, mut failed) = (0, 0);
    let mut last_pass = (0.0, 0.0);
    let mut level = 0;
    let mut attempts = 0;
    while attempts < SWEEP_STEPS {
        let rate = SWEEP_START * SWEEP_GROWTH.powi(level);
        let mut tries = Vec::new();
        while attempts < SWEEP_STEPS && tries.len() < 2 {
            let st = step(s, rng, rate, per_step)?;
            attempts += 1;
            attempted += st.plan.len() as u64;
            failed += st.bad() as u64;
            println!(
                "  sweep {rate:>7.0}/s: achieved {:>8.1}/s, p99 {:>9.1} us, late {:.4}, \
                 sender p99 late {:.1} us, {} failed",
                st.achieved(per_step),
                st.latencies().quantile_us(0.99),
                st.late_share(),
                st.lateness().quantile_us(0.99),
                st.bad(),
            );
            let ok = st.passes();
            tries.push(st);
            if ok {
                break;
            }
        }
        let best = tries
            .iter()
            .min_by(|a, b| a.late_share().total_cmp(&b.late_share()))
            .expect("at least one attempt");
        let (achieved, late) = (best.achieved(per_step), best.late_share());
        if best.passes() {
            last_pass = (achieved, late);
            level += 1;
            continue;
        }
        if tries.len() < 2 {
            break; // the retry did not fit in the budget: no verdict
        }
        let (r_pass, l_pass) = last_pass;
        let frac = ((0.01 - l_pass) / (late - l_pass).max(1e-12)).clamp(0.0, 1.0);
        return Ok((
            r_pass + (achieved - r_pass).max(0.0) * frac,
            attempted,
            failed,
        ));
    }
    println!("  sweep: budget spent before a step missed the limit; sustained is a lower bound");
    Ok((last_pass.0, attempted, failed))
}

pub fn run(ctx: &Ctx) -> Result<RunOut, String> {
    println!(
        "search_open: {TENANTS} in-memory tenants x {DOCS} docs over a {VOCABULARY}-word \
         Zipf vocabulary, {QUERIES} captured queries each; Poisson arrivals, window \
         {WINDOW}/connection, reference rate {REFERENCE_RATE}/s, p99 limit {P99_LIMIT_US} us; \
         flush policy: none (in-memory)"
    );
    let epoch = Instant::now();
    let (mut s, setup_times) = session::repeated_setup(|| setup(ctx, epoch))?;
    let mut rng = Rng::new(ctx.seed ^ 0x09E7);
    let full = Duration::from_secs_f64(ctx.seconds);
    let reference = step(&s.state, &mut rng, REFERENCE_RATE, full / 2)?;
    let (sustained, swept, swept_failed) = sweep(&s.state, &mut rng, full / 2)?;
    let mut attempted = reference.plan.len() as u64 + swept;
    let mut failed = reference.bad() as u64 + swept_failed;
    let mismatches = reference.out.mismatches;
    println!(
        "  reference {REFERENCE_RATE}/s: {} requests, {} mismatches, {} BUSY re-sends, \
         sender p99 late {:.1} us; sustained {sustained:.1}/s",
        reference.plan.len(),
        mismatches,
        reference.out.busy_resends,
        reference.lateness().quantile_us(0.99)
    );
    let mut preload = s.state.preload.clone();
    let untraced = e2e(
        &setup_times,
        sustained,
        &mut reference.latencies(),
        &mut preload,
        s.daemon.peak_rss_mb(),
    );
    if !ctx.trace {
        s.daemon.shutdown(&mut s.admin)?;
        return Ok(RunOut {
            attempted,
            failed,
            metrics: untraced,
        });
    }

    // Traced: one more reference-rate step inside a stats window. The
    // open loop records timestamps either way; spans are built from them
    // afterwards, so tracing adds no work to the timed path.
    let before = daemon::stats(&mut s.admin)?;
    let proc_before = s.daemon.proc_sample();
    let traced = step(&s.state, &mut rng, REFERENCE_RATE, full / 2)?;
    let proc_after = s.daemon.proc_sample();
    let after = daemon::stats(&mut s.admin)?;
    attempted += traced.plan.len() as u64;
    failed += traced.bad() as u64;
    let traced_m = e2e(
        &setup_times,
        sustained,
        &mut traced.latencies(),
        &mut preload,
        0.0,
    );
    print_overhead(&untraced, &traced_m);
    println!("  (ops_per_s is the untraced sweep's in both columns)");
    s.daemon.shutdown(&mut s.admin)?;

    let base = s.state.next_seq.load(std::sync::atomic::Ordering::Relaxed);
    let start_ns = epoch.elapsed().as_nanos() as u64; // spans sit after set-up
    let mut spans = Vec::new();
    let mut log = std::mem::take(&mut s.state.log);
    let mut bytes_down = 0;
    let mut order: Vec<usize> = (0..traced.plan.len()).collect();
    order.sort_by_key(|i| traced.out.sent_ns[*i]);
    for (n, &i) in order.iter().enumerate() {
        let (p, done, sent) = (traced.plan[i], traced.out.done_ns[i], traced.out.sent_ns[i]);
        if done == FAILED {
            continue;
        }
        let op = i as u64 + 1;
        spans.push(Span {
            name: "op.search",
            op,
            parent: None,
            start_ns: start_ns + p.at_ns,
            end_ns: start_ns + done,
        });
        spans.push(Span {
            name: "transport.round_trip",
            op,
            parent: Some(spans.len() - 1),
            start_ns: start_ns + sent,
            end_ns: start_ns + done,
        });
        bytes_down += s.state.captured[p.conn].expected[p.req].len() as u64;
        log.push(Recorded {
            seq: base + n as u64,
            tenant: s.state.tenants[p.conn].clone(),
            scheme: SchemeId::Scheme2,
            kind: KIND_DATA,
            parts: vec![s.state.captured[p.conn].requests[p.req].clone()],
            rtt_ns: done - sent,
            op,
            op_name: "op.search",
        });
    }
    let searches = (traced.plan.len() - traced.bad()) as u64;
    let params = TenantParams {
        scheme2_chain_length: CHAIN,
        ..TenantParams::default()
    };
    let replayed = replay::replay(log, params, None, epoch)?;
    let metrics = layers::compute(&LayerInputs {
        before: &before,
        after: &after,
        proc_before,
        proc_after,
        searches,
        updates: 0,
        search_rounds: searches,
        search_bytes_down: bytes_down,
        update_bytes_up: 0,
        busy_retries: traced.out.busy_resends,
        spans: &spans,
        replay: &replayed,
        user_bytes: s.state.user_bytes,
        disk_bytes: 0,
        lateness: traced.lateness(),
    });
    let rtt = metrics.iter().find(|m| m.name == "transport.rtt_us_p50");
    let handler = metrics.iter().find(|m| m.name == "handler.search_us_p50");
    let stack = metrics.iter().find(|m| m.name == "stack.overhead_us_p50");
    if let (Some(r), Some(h), Some(o)) = (rtt, handler, stack) {
        println!(
            "  attribution: handler p50 {:.1} + stack overhead p50 {:.1} = {:.1} us vs round trip p50 {:.1} us",
            h.value,
            o.value,
            h.value + o.value,
            r.value
        );
    }
    let all = crate::trace::merge(vec![spans, replayed.spans]);
    report_spans(ctx, "search_open", &all);
    Ok(RunOut {
        attempted,
        failed,
        metrics,
    })
}
