//! The benchmark's fixed vocabulary: workloads, metric catalogue, bounds.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`ftc-benchmark --contract`), and a unit test pins the checked-in file
//! to that rendering, so the names a later issue cites cannot drift from
//! the names the binary prints.

use ft_cache::fleet::{json_string, Json};

/// Output-document schema tag (reports and span files).
pub const SCHEMA: &str = "ftc-benchmark/1";

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Fleets booted per untraced run. Each round sets the fleet up from
/// nothing and measures a fifth of the run, so `setup_s` and
/// `server_rss_mb` are medians of five and `failover` stops a node five
/// times, not once.
pub const ROUNDS: usize = 5;

/// One training-read workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub why: &'static str,
    pub files: usize,
    pub size: usize,
    /// `--nvme-mb` per server.
    pub nvme_mb: u64,
    /// Node 1 is `SIGSTOP`ped part-way through each round.
    pub failover: bool,
}

impl Workload {
    /// True when the whole dataset fits the fleet's NVMe: after the
    /// warm-up epoch every timed read must be a cache hit.
    pub fn warm(&self) -> bool {
        (self.files * self.size) as u64 <= self.nvme_mb * 1024 * 1024
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hit_small",
        why: "4096 x 4 KiB, warm, fits NVMe: per-message cost dominates (client bookkeeping, ring lookup, codec, frame writes, waiter hand-off, NvmeCache::get)",
        files: 4096,
        size: 4096,
        nvme_mb: 256,
        failover: false,
    },
    Workload {
        name: "hit_large",
        why: "192 x 1 MiB, warm, fits NVMe: per-byte cost dominates (send-side scratch copy, zero-fill on receive, socket); a per-message win must not move it",
        files: 192,
        size: 1 << 20,
        nvme_mb: 256,
        failover: false,
    },
    Workload {
        name: "miss_evict",
        why: "4096 x 64 KiB against 16 MiB NVMe per server (19% of the set): server PFS fetch, DataMover enqueue, insert with LRU eviction on almost every read",
        files: 4096,
        size: 65_536,
        nvme_mb: 16,
        failover: false,
    },
    Workload {
        name: "failover",
        why: "2048 x 64 KiB, warm; node 1 is SIGSTOPped at an epoch barrier in every round: detector, ring update, recovery engine and recache do the work",
        files: 2048,
        size: 65_536,
        nvme_mb: 256,
        failover: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One catalogue entry. `bound` is set on end-to-end metrics only.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
    /// `metric@workload` the entry is expected to move (per-layer), or
    /// what the user sees in it (end-to-end).
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound: Some(bound),
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound: None,
        moves,
    }
}

pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", true, 0.25, "fleet spawn to READY, client staging, one untimed warm-up epoch; median of the run's rounds"),
    e2e("reads_per_s", "1/s", false, 0.25, "verified reads / wall seconds over the quiet half of the epochs, two closed-loop readers"),
    e2e("read_p50_us", "us", true, 0.25, "median latency of one HvacClient::read over TCP, quiet half of the epochs"),
    e2e("server_rss_mb", "MB", true, 0.05, "sum of the three servers' VmHWM before teardown; median of rounds"),
    e2e("worst_epoch_ms", "ms", true, 0.25, "slowest epoch of the calmest round; on failover the epoch that absorbs the SIGSTOP (detection stall + re-fetch + recache contention)"),
];

pub const PER_LAYER: [Metric; 50] = [
    layer("hashring.owner_ns", "ns", true, "read_p50_us@hit_small"),
    layer("hashring.remove_node_us", "us", true, "worst_epoch_ms@failover"),
    layer("storage.index_owner_ns", "ns", true, "reads_per_s@hit_small"),
    layer("storage.nvme_get_ns", "ns", true, "reads_per_s@hit_small"),
    layer("storage.nvme_insert_ns", "ns", true, "reads_per_s@miss_evict"),
    layer("storage.pfs_read_ns", "ns", true, "reads_per_s@miss_evict"),
    layer("storage.nvme.hit_ratio", "ratio", false, "explains miss_evict; must read 1.0 on hit_*"),
    layer("storage.nvme.evictions", "count", true, "explains miss_evict; must read 0 on hit_*"),
    layer("storage.pfs.reads", "count", true, "explains miss_evict; must read 0 on hit_*"),
    layer("storage.mover.recached", "count", true, "reads_per_s@miss_evict (cumulative, from DRAINED)"),
    layer("wire.encode_req_ns", "ns", true, "read_p50_us@hit_small"),
    layer("wire.decode_resp_ns", "ns", true, "read_p50_us@hit_small"),
    layer("wire.encode_resp_ns", "ns", true, "reads_per_s@hit_large"),
    layer("wire.frame_write_ns", "ns", true, "reads_per_s@hit_large"),
    layer("wire.frame_read_ns", "ns", true, "reads_per_s@hit_large"),
    layer("wire.tcp_call_us", "us", true, "read_p50_us@hit_small and reads_per_s@hit_large"),
    layer("wire.loopback_floor_us", "us", true, "nothing: the socket floor"),
    layer("wire.tcp_overhead_us", "us", true, "what ROADMAP item 1's wire fixes must shrink"),
    layer("wire.goodput_ratio", "ratio", false, "reads_per_s@hit_large"),
    layer("net.inproc_call_us", "us", true, "nothing here: how much of wire.tcp_call_us is sockets"),
    layer("core.client_overhead_us", "us", true, "read_p50_us@hit_small"),
    layer("core.server_hit_us", "us", true, "read_p50_us@hit_small"),
    layer("core.server_miss_us", "us", true, "reads_per_s@miss_evict"),
    layer("core.client.nvme_hits", "count", false, "reads_per_s on every workload"),
    layer("core.client.pfs_via_server", "count", true, "reads_per_s@miss_evict"),
    layer("core.client.pfs_direct", "count", true, "worst_epoch_ms@failover (suspect-window fallbacks)"),
    layer("core.client.rpc_timeouts", "count", true, "worst_epoch_ms@failover"),
    layer("core.client.retries", "count", true, "worst_epoch_ms@failover"),
    layer("core.client.coalesced_reads", "count", false, "nothing: readers never share a key here"),
    layer("core.client.nodes_declared_failed", "count", true, "failover only; 0 means the injection did not take"),
    layer("core.server.sheds", "count", true, "0 on an unarmored fleet"),
    layer("core.detector.detect_ms", "ms", true, "worst_epoch_ms@failover"),
    layer("core.recovery.quiesce_ms", "ms", true, "worst_epoch_ms@failover"),
    layer("core.recovery.recache_pushed", "count", false, "read_p99_us@failover"),
    layer("core.recovery.recache_failed", "count", true, "read_p99_us@failover"),
    layer("core.recovery.pfs_reads_per_lost_key", "ratio", true, "the paper's one extra PFS access per lost file"),
    layer("core.recovery.final_nvme_ratio", "ratio", false, "must read 1.0: the cache healed"),
    layer("failover.window_ms", "ms", true, "SIGSTOP to the end of the 2-epoch failure window: what the job loses"),
    layer("fleet.read_p50_us", "us", true, "the traced run's own read_p50_us"),
    layer("fleet.read_p99_us", "us", true, "99th percentile of the fleet pass, all epochs; demoted from end-to-end: it cannot hold a bound on this host"),
    layer("fleet.reads_per_s", "1/s", false, "the traced run's own reads_per_s (untraced epochs)"),
    layer("trace.read_sum_us", "us", true, "client_overhead + tcp_call + server_hit"),
    layer("trace.unaccounted_pct", "%", true, "share of the traced read_p50_us the three stages do not explain"),
    layer("trace.overhead_pct", "%", true, "traced vs untraced epochs, reads_per_s"),
    layer("trace.spans", "count", false, "spans written to benchmark/out/trace-<workload>.jsonl"),
    layer("core.client.reads_ok", "count", false, "reads the traced fleet pass completed"),
    layer("storage.nvme.resident_mb", "MB", true, "server_rss_mb on every workload"),
    layer("core.recovery.lost_keys", "count", true, "keys node 1 owned when it was stopped"),
    layer("fleet.epochs", "count", false, "epochs in the traced fleet pass"),
    layer("fleet.setup_s", "s", true, "setup_s: the traced run's single set-up"),
];

fn metric_json(m: &Metric) -> String {
    let j = Json::obj()
        .s("name", m.name)
        .s("unit", m.unit)
        .s("better", if m.lower_is_better { "lower" } else { "higher" });
    match m.bound {
        Some(b) => j.f("bound", b),
        None => j,
    }
    .render()
}

fn array(items: Vec<String>) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// `BENCHMARK.json`, exactly as checked in.
pub fn contract_json() -> String {
    let strings = |v: &[&str]| {
        let quoted: Vec<String> = v.iter().map(|s| json_string(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().s("name", w.name).s("why", w.why).render())
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&["bash", "benchmark/run.sh"]),
        strings(&["benchmark"]),
        RUN_SECONDS,
        array(workloads),
        array(END_TO_END.iter().map(metric_json).collect()),
        array(PER_LAYER.iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn checked_in_contract_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            contract_json(),
            "regenerate with: bash benchmark/run.sh --contract > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
    }

    #[test]
    fn setup_has_the_widest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END[0].bound.expect("setup_s bound");
        assert_eq!(END_TO_END[0].name, "setup_s");
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b <= setup && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn only_miss_evict_overflows_the_nvme_tier() {
        let cold: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| !w.warm())
            .map(|w| w.name)
            .collect();
        assert_eq!(cold, ["miss_evict"]);
    }
}
