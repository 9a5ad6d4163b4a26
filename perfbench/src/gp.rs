//! `gp_durable`: the §6 general practitioner on a durable tenant.
//!
//! Two Scheme 2 clients share one durable `btree` tenant (default group
//! commit, fsync before ack) and replay the GP profile closed-loop: one
//! Zipf-popular condition search, then two record stores, per visit.
//! Every store is journaled, fsynced and epoch-swapped, and each swap
//! empties the server's chain-key memo, so this loads the commit, storage
//! and client-crypto paths with writes beside reads on the search path.

use crate::closed::{Kind, User};
use crate::daemon::{Daemon, TempDir};
use crate::session::{self, Session};
use crate::tap::Tap;
use crate::trace::{TraceLog, Tracer};
use crate::{Ctx, RunOut};
use sse_core::scheme2::{Scheme2Client, Scheme2Config};
use sse_core::types::{Keyword, MasterKey, SearchHits};
use sse_phr::record::MedicalRecord;
use sse_phr::workload::{generate_records, gp_profile, PhrEvent};
use sse_server::proto::SchemeId;
use sse_server::tenant::TenantParams;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

const TENANT: &str = "gp";
const CLIENTS: u64 = 2;
/// Records each client's history holds before the timed phase.
const HISTORY: usize = 48;

/// Hash-chain length `l`, passed to both the clients and the daemon
/// (`--scheme2-chain`). Each visit advances a client's counter once, so
/// it bounds the visits one client may make; twice the default
/// leaves room for a 20 s run.
const CHAIN: u64 = 8_192;

/// Fewest visits per client the chain must leave room for, per second of
/// measurement: well above the visit rate a fsync-bound tenant reaches.
const VISIT_CEILING_PER_S: f64 = 400.0;

/// Expected record ids per code: the oracle of one client.
#[derive(Default)]
pub struct Oracle {
    pub ids: BTreeMap<String, BTreeSet<u64>>,
    pub user_bytes: u64,
}

impl Oracle {
    pub fn stored(&mut self, r: &MedicalRecord) {
        for code in r.codes.iter().map(String::as_str).chain([r.kind.keyword()]) {
            self.ids.entry(code.to_string()).or_default().insert(r.id);
        }
        self.user_bytes += r.to_payload().len() as u64;
    }

    /// Check decoded search hits against the acked records for `code`.
    pub fn check(&self, code: &str, hits: &[(u64, Vec<u8>)]) -> Result<(), String> {
        let mut got = BTreeSet::new();
        for (id, payload) in hits {
            let rec = MedicalRecord::from_payload(payload)
                .ok_or_else(|| format!("{code}: record {id} does not decode"))?;
            let has = rec.codes.iter().any(|c| c == code) || rec.kind.keyword() == code;
            if rec.id != *id || !has {
                return Err(format!("{code}: record {id} is not a {code} record"));
            }
            got.insert(*id);
        }
        let want = self.ids.get(code).cloned().unwrap_or_default();
        if got != want {
            return Err(format!(
                "{code}: got {} ids, {} acked ({} missing, {} extra)",
                got.len(),
                want.len(),
                want.difference(&got).count(),
                got.difference(&want).count()
            ));
        }
        Ok(())
    }
}

pub struct GpClient {
    client: Scheme2Client<Tap>,
    tracer: Tracer,
    index: u64,
    seed: u64,
    visits: u64,
    budget: u64,
    pending: VecDeque<PhrEvent>,
    next_id: u64,
    oracle: Oracle,
    /// The last search's code and hits, for [`User::verify`].
    answer: Option<(Keyword, SearchHits)>,
}

impl GpClient {
    fn refill(&mut self) -> bool {
        if !self.pending.is_empty() {
            return true;
        }
        if self.visits >= self.budget {
            return false;
        }
        let visit_seed = self.seed ^ (self.index << 48) ^ (self.visits + 1);
        for mut event in gp_profile(1, 2, visit_seed) {
            if let PhrEvent::Store(records) = &mut event {
                for r in records {
                    r.id = self.next_id * CLIENTS + self.index;
                    self.next_id += 1;
                }
            }
            self.pending.push_back(event);
        }
        self.visits += 1;
        true
    }
}

impl User for GpClient {
    fn next_kind(&mut self) -> Option<Kind> {
        if !self.refill() {
            return None;
        }
        Some(match self.pending.front() {
            Some(PhrEvent::Search(_)) => Kind::Search,
            _ => Kind::Update,
        })
    }

    fn run_op(&mut self) -> Result<(), String> {
        match self.pending.pop_front().expect("next_kind refilled") {
            PhrEvent::Search(kw) => {
                let hits = self.client.search(&kw).map_err(|e| e.to_string())?;
                self.answer = Some((kw, hits));
                Ok(())
            }
            PhrEvent::Store(records) => {
                let docs: Vec<_> = records.iter().map(MedicalRecord::to_document).collect();
                self.client.store(&docs).map_err(|e| e.to_string())?;
                for r in &records {
                    self.oracle.stored(r);
                }
                Ok(())
            }
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        match self.answer.take() {
            Some((kw, hits)) => self.oracle.check(kw.as_str(), &hits),
            None => Ok(()),
        }
    }

    fn tap(&mut self) -> &mut Tap {
        self.client.transport_mut()
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

fn setup(ctx: &Ctx, epoch: Instant) -> Result<Session<Vec<GpClient>>, String> {
    let dir = TempDir::new(&ctx.work, "data-gp_durable")?;
    let dir_arg = dir.0.to_string_lossy().to_string();
    let chain = CHAIN.to_string();
    let args = ctx.daemon_args(&[
        "--data-dir",
        &dir_arg,
        "--backend",
        "btree",
        "--scheme2-chain",
        &chain,
    ]);
    let daemon = Daemon::spawn(&ctx.daemon, &args)?;
    let order = Arc::new(AtomicU64::new(0));
    let mut users = Vec::new();
    for index in 0..CLIENTS {
        let tracer = TraceLog::tracer(false, epoch, (index + 1) << 40);
        let mut tap = Tap::new(
            daemon.connect(TENANT, SchemeId::Scheme2)?,
            tracer.clone(),
            order.clone(),
            TENANT,
            SchemeId::Scheme2,
        );
        tap.logging = ctx.trace;
        let seed = ctx.seed.wrapping_mul(0x9E37_79B9).wrapping_add(index);
        let mut client = Scheme2Client::new_seeded(
            tap,
            MasterKey::from_seed(seed ^ 0x6770),
            Scheme2Config::standard().with_chain_length(CHAIN),
            seed,
        );
        let mut history = generate_records(HISTORY, seed);
        let mut oracle = Oracle::default();
        for (i, r) in history.iter_mut().enumerate() {
            r.id = i as u64 * CLIENTS + index;
            oracle.stored(r);
        }
        let docs: Vec<_> = history.iter().map(MedicalRecord::to_document).collect();
        client
            .store_batch(&docs)
            .map_err(|e| format!("history load: {e}"))?;
        // Chain guard: one counter step per visit, and the timed phase
        // must never reach `ChainExhausted`.
        let budget = client.chain_remaining().saturating_sub(1);
        let needed = (ctx.seconds * VISIT_CEILING_PER_S).ceil() as u64;
        if budget < needed {
            return Err(format!(
                "chain guard: {budget} visits left on a {CHAIN}-step chain, {needed} needed \
                 for {} s",
                ctx.seconds
            ));
        }
        users.push(GpClient {
            client,
            tracer,
            index,
            seed,
            visits: 0,
            budget,
            pending: VecDeque::new(),
            next_id: HISTORY as u64,
            oracle,
            answer: None,
        });
    }
    Ok(Session {
        admin: daemon.connect(TENANT, SchemeId::Scheme2)?,
        daemon,
        state: users,
        dir: Some(dir),
        epoch,
    })
}

pub fn run(ctx: &Ctx) -> Result<RunOut, String> {
    println!(
        "gp_durable: {CLIENTS} Scheme 2 clients, 1 durable btree tenant, \
         flush policy: group commit, fsync before ack; chain length {CHAIN}"
    );
    let epoch = Instant::now();
    let (session, times) = session::repeated_setup(|| setup(ctx, epoch))?;
    let params = TenantParams {
        scheme2_chain_length: CHAIN,
        ..TenantParams::default()
    };
    session::finish(ctx, "gp_durable", session, &times, params, |users| {
        users.iter().map(|d| d.oracle.user_bytes).sum()
    })
}
