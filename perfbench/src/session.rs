//! The shape every closed-loop workload shares: set up several times
//! (keeping the last), measure, shut down cleanly, and — in a traced run —
//! replay the recorded requests to measure the handler and storage layers.

use crate::closed::{self, User, Window};
use crate::daemon::{self, Daemon, TempDir};
use crate::layers::{self, LayerInputs};
use crate::replay;
use crate::stats::Samples;
use crate::{e2e, print_overhead, report_spans, Ctx, RunOut, SETUPS};
use sse_server::tenant::TenantParams;
use sse_server::TcpTransport;
use std::time::{Duration, Instant};

pub struct Session<S> {
    pub daemon: Daemon,
    pub admin: TcpTransport,
    /// The workload's clients.
    pub state: S,
    /// Data directory (durable workloads), removed on drop.
    pub dir: Option<TempDir>,
    pub epoch: Instant,
}

/// Run `setup` [`SETUPS`] times; tear all but the last down. Returns the
/// kept session and every set-up's duration in seconds.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<Session<S>, String>,
) -> Result<(Session<S>, Vec<f64>), String> {
    let mut times = Vec::new();
    for rep in 0..SETUPS {
        let start = Instant::now();
        let session = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if rep + 1 == SETUPS {
            println!("daemon flags: {}", session.daemon.args.join(" "));
            return Ok((session, times));
        }
        let Session {
            daemon,
            mut admin,
            state,
            dir,
            ..
        } = session;
        daemon.shutdown(&mut admin)?;
        drop((state, dir));
    }
    unreachable!("SETUPS is at least 1")
}

fn check(window: &Window) -> Result<(), String> {
    for e in &window.errors {
        println!("  op failed: {e}");
    }
    if window.exhausted {
        return Err(
            "a client spent its op budget (chain counters or id capacity) \
                    before the window ended; the guard stopped it"
                .to_string(),
        );
    }
    Ok(())
}

/// Measure `session` and turn it into the run's output.
pub fn finish<D: User>(
    ctx: &Ctx,
    workload: &str,
    mut s: Session<Vec<D>>,
    setup: &[f64],
    params: TenantParams,
    user_bytes: impl Fn(&[D]) -> u64,
) -> Result<RunOut, String> {
    let full = Duration::from_secs_f64(ctx.seconds);
    if !ctx.trace {
        let (_, mut w) = closed::run(std::mem::take(&mut s.state), full, false);
        check(&w)?;
        let metrics = e2e(
            setup,
            w.ops_per_s(),
            &mut w.search,
            &mut w.update,
            s.daemon.peak_rss_mb(),
        );
        s.daemon.shutdown(&mut s.admin)?;
        return Ok(RunOut {
            attempted: w.ops,
            failed: w.failed,
            metrics,
        });
    }
    let before = daemon::stats(&mut s.admin)?;
    let proc_before = s.daemon.proc_sample();
    let (mut users, mut w) = closed::run(std::mem::take(&mut s.state), full, true);
    let proc_after = s.daemon.proc_sample();
    let after = daemon::stats(&mut s.admin)?;
    check(&w)?;
    let clients = users.len();
    let untraced_m = e2e(
        setup,
        w.implied_ops_per_s(false, clients),
        &mut w.search,
        &mut w.update,
        0.0,
    );
    let traced_m = e2e(
        setup,
        w.implied_ops_per_s(true, clients),
        &mut w.traced_search,
        &mut w.traced_update,
        0.0,
    );
    print_overhead(&untraced_m, &traced_m);
    println!(
        "  (every other op traced; ops_per_s here is clients / mean op latency, \
         {:.1}/s measured over the window)",
        w.ops_per_s()
    );
    s.daemon.shutdown(&mut s.admin)?;
    let disk_bytes = s.dir.as_ref().map_or(0, TempDir::bytes);
    let user = user_bytes(&users);

    let mut requests = Vec::new();
    let mut spans = Vec::new();
    for d in &mut users {
        requests.append(&mut d.tap().log);
        spans.push(d.tracer().lock().expect("trace log poisoned").take());
    }
    let spans = crate::trace::merge(spans);
    let replay_dir = match &s.dir {
        Some(_) => Some(TempDir::new(&ctx.work, &format!("replay-{workload}"))?),
        None => None,
    };
    let replayed = replay::replay(
        requests,
        params,
        replay_dir.as_ref().map(|d| d.0.as_path()),
        s.epoch,
    )?;
    let metrics = layers::compute(&LayerInputs {
        before: &before,
        after: &after,
        proc_before,
        proc_after,
        searches: w.searches,
        updates: w.updates,
        search_rounds: w.search_rounds,
        search_bytes_down: w.search_bytes_down,
        update_bytes_up: w.update_bytes_up,
        busy_retries: w.busy_retries,
        spans: &spans,
        replay: &replayed,
        user_bytes: user,
        disk_bytes,
        lateness: Samples::new(),
    });
    let all = crate::trace::merge(vec![spans, replayed.spans]);
    report_spans(ctx, workload, &all);
    Ok(RunOut {
        attempted: w.ops,
        failed: w.failed,
        metrics,
    })
}
