//! `traveler_batch`: the §6 traveler on Scheme 1, batched.
//!
//! Two Scheme 1 clients, each on its own durable `lsm` tenant with several
//! index shards. Set-up bulk-loads each traveler's history; the timed
//! phase sends `SEARCH_MANY` batches of several codes (two rounds and
//! one ElGamal decryption per present code on the client) with an
//! occasional record store. This covers what the Scheme 2 workloads barely
//! touch: Scheme 1's rounds and modexp, Θ(capacity) bit-array updates, the
//! `SEARCH_MANY` fan-out, and lsm run reads, bloom filters and compaction.

use crate::closed::{Kind, User};
use crate::daemon::{Daemon, TempDir};
use crate::gp::Oracle;
use crate::session::{self, Session};
use crate::stats::{Rng, ZipfTable};
use crate::tap::Tap;
use crate::trace::{TraceLog, Tracer};
use crate::{Ctx, RunOut};
use sse_core::scheme1::{Scheme1Client, Scheme1Config};
use sse_core::types::{Keyword, MasterKey, SearchHits};
use sse_phr::codes;
use sse_phr::record::{MedicalRecord, RecordKind};
use sse_phr::workload::generate_records;
use sse_server::proto::SchemeId;
use sse_server::tenant::TenantParams;
use sse_storage::backend::BackendKind;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 2;
const SHARDS: usize = 4;
/// Records in each traveler's bulk-loaded history.
const HISTORY: usize = 150;
/// Codes per `SEARCH_MANY` batch.
const BATCH: usize = 4;
/// One op in this many is a record store.
const STORE_EVERY: u64 = 4;
/// Most stores per second the id capacity must leave room for.
const STORE_CEILING_PER_S: f64 = 190.0;

/// Scheme 1 bit-array capacity in records, shared by the clients and the
/// daemon (its `--scheme1-capacity` default).
fn capacity() -> u64 {
    TenantParams::default().scheme1_capacity
}

pub struct Traveler {
    client: Scheme1Client<Tap>,
    tracer: Tracer,
    rng: Rng,
    zipf: ZipfTable,
    next_id: u64,
    seed: u64,
    oracle: Oracle,
    ops: u64,
    answer: Option<(Vec<Keyword>, Vec<SearchHits>)>,
}

impl Traveler {
    /// Vaccination validity plus `BATCH - 1` distinct Zipf-popular
    /// procedure and condition codes.
    fn batch(&mut self) -> Vec<Keyword> {
        let pool: Vec<&str> = codes::PROCEDURES
            .iter()
            .chain(codes::CONDITIONS)
            .copied()
            .collect();
        let mut words = vec![Keyword::new(RecordKind::Vaccination.keyword())];
        while words.len() < BATCH {
            let w = Keyword::new(pool[self.zipf.sample(&mut self.rng) % pool.len()]);
            if !words.contains(&w) {
                words.push(w);
            }
        }
        words
    }
}

impl User for Traveler {
    fn next_kind(&mut self) -> Option<Kind> {
        if self.ops % STORE_EVERY == STORE_EVERY - 1 {
            // Id-capacity guard: stop rather than overflow the bit arrays.
            (self.next_id < capacity()).then_some(Kind::Update)
        } else {
            Some(Kind::Search)
        }
    }

    fn run_op(&mut self) -> Result<(), String> {
        self.ops += 1;
        if self.ops.is_multiple_of(STORE_EVERY) {
            let mut record = generate_records(1, self.seed ^ self.next_id).remove(0);
            record.id = self.next_id;
            self.client
                .store(&[record.to_document()])
                .map_err(|e| e.to_string())?;
            self.next_id += 1;
            self.oracle.stored(&record);
            return Ok(());
        }
        let words = self.batch();
        let hits = self
            .client
            .search_batch(&words)
            .map_err(|e| e.to_string())?;
        self.answer = Some((words, hits));
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let Some((words, hits)) = self.answer.take() else {
            return Ok(());
        };
        if hits.len() != words.len() {
            return Err(format!("{} answers for {} codes", hits.len(), words.len()));
        }
        for (w, h) in words.iter().zip(&hits) {
            self.oracle.check(w.as_str(), h)?;
        }
        Ok(())
    }

    fn tap(&mut self) -> &mut Tap {
        self.client.transport_mut()
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

fn setup(ctx: &Ctx, epoch: Instant) -> Result<Session<Vec<Traveler>>, String> {
    let dir = TempDir::new(&ctx.work, "data-traveler_batch")?;
    let dir_arg = dir.0.to_string_lossy().to_string();
    let shards = SHARDS.to_string();
    let args = ctx.daemon_args(&[
        "--data-dir",
        &dir_arg,
        "--backend",
        "lsm",
        "--shards",
        &shards,
    ]);
    let daemon = Daemon::spawn(&ctx.daemon, &args)?;
    let order = Arc::new(AtomicU64::new(0));
    let needed = HISTORY as u64 + (ctx.seconds * STORE_CEILING_PER_S).ceil() as u64;
    if needed > capacity() {
        return Err(format!(
            "capacity guard: {needed} record ids needed for {} s, capacity {}",
            ctx.seconds,
            capacity()
        ));
    }
    let mut users = Vec::new();
    for index in 0..CLIENTS {
        let tenant = format!("traveler-{index}");
        let tracer = TraceLog::tracer(false, epoch, (index as u64 + 1) << 40);
        let mut tap = Tap::new(
            daemon.connect(&tenant, SchemeId::Scheme1)?,
            tracer.clone(),
            order.clone(),
            &tenant,
            SchemeId::Scheme1,
        );
        tap.logging = ctx.trace;
        let seed = ctx
            .seed
            .wrapping_mul(0x7A7E_11E5)
            .wrapping_add(index as u64);
        let mut client = Scheme1Client::new_seeded(
            tap,
            MasterKey::from_seed(seed ^ 0x7247),
            Scheme1Config::fast_profile(capacity()),
            seed,
        );
        let history = generate_records(HISTORY, seed);
        let mut oracle = Oracle::default();
        for r in &history {
            oracle.stored(r);
        }
        let docs: Vec<_> = history.iter().map(MedicalRecord::to_document).collect();
        client
            .store_batch(&docs)
            .map_err(|e| format!("history load: {e}"))?;
        // Flush the history into lsm runs, so searches read runs through
        // their bloom filters rather than only the memtable.
        client
            .request_checkpoint()
            .map_err(|e| format!("history checkpoint: {e}"))?;
        users.push(Traveler {
            client,
            tracer,
            rng: Rng::new(seed),
            zipf: ZipfTable::new(codes::PROCEDURES.len() + codes::CONDITIONS.len(), 1.1),
            next_id: HISTORY as u64,
            seed,
            oracle,
            ops: 0,
            answer: None,
        });
    }
    Ok(Session {
        admin: daemon.connect("traveler-0", SchemeId::Scheme1)?,
        daemon,
        state: users,
        dir: Some(dir),
        epoch,
    })
}

pub fn run(ctx: &Ctx) -> Result<RunOut, String> {
    println!(
        "traveler_batch: {CLIENTS} Scheme 1 clients on separate durable lsm tenants \
         ({SHARDS} shards), SEARCH_MANY of {BATCH} codes, a store every {STORE_EVERY} ops; \
         flush policy: group commit, fsync before ack; capacity {}",
        capacity()
    );
    let epoch = Instant::now();
    let (session, times) = session::repeated_setup(|| setup(ctx, epoch))?;
    let params = TenantParams {
        shards: SHARDS,
        backend: BackendKind::Lsm,
        ..TenantParams::default()
    };
    session::finish(ctx, "traveler_batch", session, &times, params, |users| {
        users.iter().map(|d| d.oracle.user_bytes).sum()
    })
}
