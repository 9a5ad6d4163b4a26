//! `perfbench` — the repository benchmark. Starts the release
//! `sse-serverd` as a child process, drives one workload against it from
//! this process, checks every answer, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`), ending with one
//! JSON line. See `perfbench/README.md` for the workloads and metrics.

mod closed;
mod daemon;
mod gp;
mod layers;
mod open;
mod openloop;
mod replay;
mod session;
mod stats;
mod tap;
mod trace;
mod traveler;

use layers::Metric;
use stats::Samples;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
    pub work: PathBuf,
    pub nproc: usize,
}

impl Ctx {
    /// Daemon flags shared by every workload: one worker per core.
    pub fn daemon_args(&self, extra: &[&str]) -> Vec<String> {
        let mut args = vec!["--workers".to_string(), self.nproc.to_string()];
        args.extend(extra.iter().map(|s| (*s).to_string()));
        args
    }
}

/// What a workload hands back.
pub struct RunOut {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with the report
/// lines that give each latency's sample count and deepest percentile.
pub fn e2e(
    setup: &[f64],
    ops_per_s: f64,
    search: &mut Samples,
    update: &mut Samples,
    rss_mb: f64,
) -> Vec<Metric> {
    for (label, s) in [("search", &mut *search), ("update", &mut *update)] {
        let deepest = s.highest_resolved().map_or("none".to_string(), |(p, ns)| {
            format!("p{p} {:.1} us", ns as f64 / 1e3)
        });
        println!(
            "  {label}: n={} p50 {:.1} us p99 {:.1} us; deepest resolved: {deepest}",
            s.len(),
            s.quantile_us(0.5),
            s.quantile_us(0.99)
        );
    }
    println!("  setup repetitions (s): {setup:.3?}");
    vec![
        layers::metric("setup_s", "s", stats::median(setup)),
        layers::metric("ops_per_s", "1/s", ops_per_s),
        layers::metric("search_p50_us", "us", search.quantile_us(0.5)),
        layers::metric("search_p99_us", "us", search.quantile_us(0.99)),
        layers::metric("update_p50_us", "us", update.quantile_us(0.5)),
        layers::metric("server_rss_mb", "MiB", rss_mb),
    ]
}

/// Print traced-minus-untraced for each end-to-end metric.
pub fn print_overhead(untraced: &[Metric], traced: &[Metric]) {
    println!("tracing overhead (traced - untraced window):");
    for (u, t) in untraced.iter().zip(traced) {
        if u.name != "setup_s" {
            println!(
                "  {:<16} {:>12.2} -> {:>12.2} {:<4} ({:+.2})",
                u.name,
                u.value,
                t.value,
                u.unit,
                t.value - u.value
            );
        }
    }
}

/// Print per-name span self times and write the spans out.
pub fn report_spans(ctx: &Ctx, workload: &str, spans: &[trace::Span]) {
    println!("span self times (n, p50 us, p99 us, total ms):");
    for (name, own) in trace::self_time_table(spans) {
        let q = |p: f64| own[((p * own.len() as f64).ceil() as usize).clamp(1, own.len()) - 1];
        println!(
            "  {:<24} n={:<8} p50 {:>9.1} p99 {:>9.1} total {:>9.1}",
            name,
            own.len(),
            q(0.5) as f64 / 1e3,
            q(0.99) as f64 / 1e3,
            own.iter().sum::<u64>() as f64 / 1e6
        );
    }
    let path = ctx
        .work
        .join(format!("spans-{workload}-seed{}.tsv", ctx.seed));
    match trace::write_tsv(spans, &path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
}

fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && path.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, fs)| fs)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload gp_durable|search_open|traveler_batch --seed N \
         --seconds N --trace 0|1 --daemon PATH --work-dir DIR"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = String::new();
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: PathBuf::new(),
        work: PathBuf::new(),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = value;
                true
            }
            "--seed" => value.parse().map(|v| ctx.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| ctx.seconds = v).is_ok(),
            "--trace" => {
                ctx.trace = value == "1";
                value == "0" || value == "1"
            }
            "--daemon" => {
                ctx.daemon = PathBuf::from(value);
                true
            }
            "--work-dir" => {
                ctx.work = PathBuf::from(value);
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    if ctx.seconds <= 0.0 || !ctx.daemon.is_file() || std::fs::create_dir_all(&ctx.work).is_err() {
        return usage();
    }
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!(
        "perfbench: workload {workload}, seed {}, {} s, trace {}, nproc {}, kernel {}, \
         work dir {} on {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.nproc,
        kernel.trim(),
        ctx.work.display(),
        filesystem_of(&ctx.work)
    );
    let result = match workload.as_str() {
        "gp_durable" => gp::run(&ctx),
        "search_open" => open::run(&ctx),
        "traveler_batch" => traveler::run(&ctx),
        _ => return usage(),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "failed_frac: {}/{} = {:.6}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for m in &out.metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
