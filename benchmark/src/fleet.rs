//! A real fleet of three `ftc-server` processes on loopback, and the
//! outside view of it: `READY`/`DRAINED` lines, obs scrapes, `VmHWM`.
//!
//! Every exit path reaps the servers: the orderly path is
//! [`Fleet::shutdown`] (`SIGTERM`, parsed `DRAINED` line, exit status),
//! `Drop` hard-kills whatever is left (panic, early `?` return), and each
//! child asks the kernel for `SIGKILL` when the benchmark process itself
//! dies, so a killed benchmark leaves no orphan holding ports and memory.

use crate::spec::Workload;
use ftc_wire::tcp::scrape_obs;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

pub const NODES: usize = 3;
/// The node the `failover` workload stops.
pub const VICTIM: usize = 1;

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;
const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    /// libc `kill(2)` / `prctl(2)`, declared directly: the workspace
    /// carries no libc crate (same choice as `tests/tcp_loopback.rs`).
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: usize, arg3: usize, arg4: usize, arg5: usize) -> i32;
}

fn signal(child: &Child, sig: i32) -> bool {
    // SAFETY: plain kill(2) aimed at a child this process spawned and has
    // not yet reaped, so the pid cannot have been recycled.
    unsafe { kill(child.id() as i32, sig) == 0 }
}

struct Node {
    child: Child,
    stdout: BufReader<ChildStdout>,
    stopped: bool,
}

/// Counters one server exposes over `ObsScrape` (`--prom`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub nvme_hits: f64,
    pub nvme_misses: f64,
    pub evictions: f64,
    pub resident_bytes: f64,
    pub resident_objects: f64,
    pub pfs_reads: f64,
}

impl Scrape {
    fn parse(text: &str) -> Result<Scrape, String> {
        let value = |name: &str| -> Result<f64, String> {
            text.lines()
                .find(|l| {
                    l.strip_prefix(name)
                        .is_some_and(|rest| rest.starts_with(['{', ' ']))
                })
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("scrape has no sample for {name}"))
        };
        Ok(Scrape {
            nvme_hits: value("ftc_nvme_hits_total")?,
            nvme_misses: value("ftc_nvme_misses_total")?,
            evictions: value("ftc_nvme_evictions_total")?,
            resident_bytes: value("ftc_nvme_resident_bytes")?,
            resident_objects: value("ftc_nvme_resident_objects")?,
            pfs_reads: value("ftc_pfs_reads_total")?,
        })
    }

    fn zip(self, o: Scrape, f: impl Fn(f64, f64) -> f64) -> Scrape {
        Scrape {
            nvme_hits: f(self.nvme_hits, o.nvme_hits),
            nvme_misses: f(self.nvme_misses, o.nvme_misses),
            evictions: f(self.evictions, o.evictions),
            resident_bytes: f(self.resident_bytes, o.resident_bytes),
            resident_objects: f(self.resident_objects, o.resident_objects),
            pfs_reads: f(self.pfs_reads, o.pfs_reads),
        }
    }

    pub fn plus(self, o: Scrape) -> Scrape {
        self.zip(o, |a, b| a + b)
    }

    pub fn minus(self, o: Scrape) -> Scrape {
        self.zip(o, |a, b| a - b)
    }
}

/// What the `DRAINED` lines of the orderly teardown add up to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Drained {
    pub sheds: u64,
    pub recached: u64,
}

impl Drained {
    /// `DRAINED node=0 hits=1 misses=2 sheds=3+4 recached=5`
    fn parse(line: &str) -> Result<Drained, String> {
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("no {key}= in {line:?}"))
        };
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("bad number {s:?} in {line:?}"))
        };
        if !line.starts_with("DRAINED") {
            return Err(format!("expected a DRAINED line, got {line:?}"));
        }
        let (cap, deadline) = field("sheds")?
            .split_once('+')
            .ok_or_else(|| format!("bad sheds= in {line:?}"))?;
        Ok(Drained {
            sheds: num(cap)? + num(deadline)?,
            recached: num(field("recached")?)?,
        })
    }
}

pub struct Fleet {
    nodes: Vec<Node>,
    addrs: Vec<SocketAddr>,
}

impl Fleet {
    /// Spawn the three servers for `w` and block until each printed
    /// `READY`. Ports are reserved by bind-then-drop.
    pub fn boot(server_bin: &Path, w: &Workload) -> Result<Fleet, String> {
        if !server_bin.is_file() {
            return Err(format!(
                "{} is missing: build it first (cargo build --release --bin ftc-server, or bash benchmark/run.sh)",
                server_bin.display()
            ));
        }
        let held: Vec<TcpListener> = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot reserve a loopback port: {e}"))?;
        let addrs: Vec<SocketAddr> = held
            .iter()
            .map(|l| l.local_addr())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot read a reserved port: {e}"))?;
        drop(held);
        let peers = addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");

        let mut fleet = Fleet {
            nodes: Vec::with_capacity(NODES),
            addrs,
        };
        // Spawn all three before waiting on any: they stage in parallel.
        for n in 0..NODES {
            let mut cmd = Command::new(server_bin);
            cmd.args(["--node", &n.to_string(), "--peers", &peers])
                .args(["--prefix", w.name])
                .args(["--files", &w.files.to_string()])
                .args(["--size", &w.size.to_string()])
                .args(["--nvme-mb", &w.nvme_mb.to_string()])
                .args(["--nvme-shards", "16", "--prom"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            // SAFETY: the hook runs between fork and exec and makes one
            // async-signal-safe syscall: have the kernel SIGKILL this
            // server when the benchmark process dies, whatever killed it.
            unsafe {
                cmd.pre_exec(|| {
                    prctl(PR_SET_PDEATHSIG, SIGKILL as usize, 0, 0, 0);
                    Ok(())
                });
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", server_bin.display()))?;
            let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
            fleet.nodes.push(Node {
                child,
                stdout,
                stopped: false,
            });
        }
        for (n, node) in fleet.nodes.iter_mut().enumerate() {
            let mut line = String::new();
            node.stdout
                .read_line(&mut line)
                .map_err(|e| format!("node {n}: reading READY: {e}"))?;
            if !line.starts_with("READY") {
                return Err(format!("node {n} did not come up, printed {line:?}"));
            }
        }
        Ok(fleet)
    }

    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// One scrape per node; `None` for a stopped node, which cannot answer.
    pub fn scrape(&self) -> Result<Vec<Option<Scrape>>, String> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(n, node)| {
                if node.stopped {
                    return Ok(None);
                }
                let text = scrape_obs(self.addrs[n], Duration::from_secs(5))
                    .map_err(|e| format!("node {n}: scrape: {e}"))?;
                Scrape::parse(&text).map(Some)
            })
            .collect()
    }

    /// Make node `n` silent without closing its sockets: the paper's
    /// timeout-detected failure. (On loopback a killed process is
    /// answered by an RST and detection is instant.)
    pub fn stop_node(&mut self, n: usize) -> Result<(), String> {
        if !signal(&self.nodes[n].child, SIGSTOP) {
            return Err(format!("SIGSTOP to node {n} failed"));
        }
        self.nodes[n].stopped = true;
        Ok(())
    }

    /// Sum of the servers' peak resident set sizes, in MB.
    pub fn rss_mb(&self) -> Result<f64, String> {
        let mut kb = 0u64;
        for (n, node) in self.nodes.iter().enumerate() {
            let path = format!("/proc/{}/status", node.child.id());
            let status =
                std::fs::read_to_string(&path).map_err(|e| format!("node {n}: {path}: {e}"))?;
            kb += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .ok_or_else(|| format!("node {n}: no VmHWM in {path}"))?;
        }
        Ok(kb as f64 / 1024.0)
    }

    /// Orderly teardown: `SIGTERM` each running server, parse its
    /// `DRAINED` line, require exit status 0. A stopped node cannot
    /// drain; it is continued and killed.
    pub fn shutdown(mut self) -> Result<Drained, String> {
        let mut sum = Drained::default();
        for (n, node) in self.nodes.iter_mut().enumerate() {
            if node.stopped {
                signal(&node.child, SIGCONT);
                let _ = node.child.kill();
                let _ = node.child.wait();
                continue;
            }
            if !signal(&node.child, SIGTERM) {
                return Err(format!("SIGTERM to node {n} failed"));
            }
            let mut line = String::new();
            node.stdout
                .read_line(&mut line)
                .map_err(|e| format!("node {n}: reading DRAINED: {e}"))?;
            let d = Drained::parse(line.trim_end())?;
            sum.sheds += d.sheds;
            sum.recached += d.recached;
            let status = node
                .child
                .wait()
                .map_err(|e| format!("node {n}: wait: {e}"))?;
            if !status.success() {
                return Err(format!("node {n} exited {status} after draining"));
            }
        }
        Ok(sum)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Hard-kill fallback; after `shutdown` every child is already
        // reaped and these calls are no-ops.
        for node in &mut self.nodes {
            if matches!(node.child.try_wait(), Ok(Some(_))) {
                continue;
            }
            signal(&node.child, SIGCONT);
            let _ = node.child.kill();
            let _ = node.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parses_labelled_samples_and_rejects_missing_ones() {
        let text = "# TYPE ftc_nvme_hits_total counter\n\
            ftc_nvme_hits_total{node=\"2\"} 41\n\
            ftc_nvme_misses_total{node=\"2\"} 7\n\
            ftc_nvme_evictions_total{node=\"2\"} 3\n\
            ftc_nvme_resident_bytes{node=\"2\"} 65536\n\
            ftc_nvme_resident_objects{node=\"2\"} 1\n\
            ftc_pfs_reads_total{node=\"2\"} 7\n";
        let s = Scrape::parse(text).expect("parse");
        assert_eq!((s.nvme_hits, s.nvme_misses, s.evictions), (41.0, 7.0, 3.0));
        assert_eq!((s.resident_bytes, s.pfs_reads), (65536.0, 7.0));
        assert!(Scrape::parse("ftc_nvme_hits_total_extra 1\n").is_err());
    }

    #[test]
    fn drained_line_parses_and_rejects() {
        let d =
            Drained::parse("DRAINED node=0 hits=10 misses=2 sheds=3+4 recached=5").expect("parse");
        assert_eq!((d.sheds, d.recached), (7, 5));
        assert!(Drained::parse("DRAINED node=0 (event loop panicked)").is_err());
        assert!(Drained::parse("READY node=0").is_err());
    }
}
