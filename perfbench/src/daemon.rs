//! The `sse-serverd` child process: spawn on an ephemeral port, probe it
//! through `/proc/<pid>` and `ADMIN_STATS`, shut it down cleanly, and
//! always kill and reap it.

use sse_server::proto::SchemeId;
use sse_server::{StatsSnapshot, TcpTransport};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Generous bound on daemon start-up (a durable open replays nothing
/// here: every run starts from an empty data directory).
const START_TIMEOUT: Duration = Duration::from_secs(20);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    pub args: Vec<String>,
    stdout: Option<JoinHandle<()>>,
}

/// Cumulative process counters read from `/proc/<pid>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// On-CPU time summed over every thread (schedstat), ns.
    pub cpu_ns: u64,
    /// Read- and write-class syscalls (`syscr + syscw` in `/proc/<pid>/io`).
    pub rw_syscalls: u64,
}

impl Daemon {
    /// Start `binary` with `args` plus `--addr 127.0.0.1:0`, and wait for
    /// its "listening on" line to learn the port.
    pub fn spawn(binary: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut all = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        all.extend_from_slice(args);
        let mut child = Command::new(binary)
            .args(&all)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Drain the daemon's stdout for its whole life so it never blocks
        // on a full pipe; the first line carries the bound address.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            args: all,
            stdout: Some(reader),
        };
        let first = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "sse-serverd printed no listening line".to_string())?;
        daemon.addr = first
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected first daemon line: {first}"))?
            .to_string();
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn connect(&self, tenant: &str, scheme: SchemeId) -> Result<TcpTransport, String> {
        TcpTransport::connect(&self.addr, tenant, scheme).map_err(|e| format!("connect: {e}"))
    }

    pub fn proc_sample(&self) -> ProcSample {
        let pid = self.pid();
        let mut cpu_ns = 0;
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                let stat =
                    std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
                cpu_ns += stat
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        let io = std::fs::read_to_string(format!("/proc/{pid}/io")).unwrap_or_default();
        let field = |key: &str| -> u64 {
            io.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        ProcSample {
            cpu_ns,
            rw_syscalls: field("syscr:") + field("syscw:"),
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        status
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Ask for a drain over `admin` (any established connection), then
    /// wait for the process to exit; kill it if it does not.
    pub fn shutdown(mut self, admin: &mut TcpTransport) -> Result<(), String> {
        let asked = admin.admin_shutdown();
        let mut child = self.child.take().expect("daemon not yet reaped");
        let deadline = Instant::now() + STOP_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        asked.map_err(|e| format!("admin shutdown: {e}"))?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("sse-serverd exited with {s}")),
            None => Err("sse-serverd did not exit after shutdown".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

pub fn stats(admin: &mut TcpTransport) -> Result<StatsSnapshot, String> {
    admin.admin_stats().map_err(|e| format!("admin stats: {e}"))
}

/// A fresh directory that is removed when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(root: &Path, name: &str) -> Result<TempDir, String> {
        let path = root.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// Total size of the regular files under the directory.
    pub fn bytes(&self) -> u64 {
        fn walk(p: &Path) -> u64 {
            std::fs::read_dir(p).map_or(0, |entries| {
                entries
                    .flatten()
                    .map(|e| match e.file_type() {
                        Ok(t) if t.is_dir() => walk(&e.path()),
                        Ok(_) => e.metadata().map_or(0, |m| m.len()),
                        Err(_) => 0,
                    })
                    .sum()
            })
        }
        walk(&self.0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
