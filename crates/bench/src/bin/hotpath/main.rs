//! `hotpath` — the PR-over-PR hot-path data-plane benchmark suite.
//!
//! Measures the serving hot path at three depths and writes one JSON
//! document (`results/BENCH_hotpath.json` by convention) that CI and
//! EXPERIMENTS.md cite:
//!
//! * **index / nvme** — store-level microbenchmarks: the lock-striped
//!   [`KeyIndex`] / [`NvmeCache`] against the legacy single-lock layout
//!   (`with_shards(1)` / `sharded(cap, 1)`) at 1/4/8 threads. Striping
//!   targets multicore parallelism; on a single-core host the numbers
//!   come out near 1× and are reported as measured — the `cores` field
//!   records the host so readers can interpret them.
//! * **read_path** — the full client→server→store read path on an
//!   in-process cluster with the Slingshot latency model, across value
//!   sizes and hit ratios, with p50/p99/p999 read latency.
//! * **coalesce** — a duplicate-read storm: N readers sharing one client
//!   hammer the same hot key, with single-flight coalescing off (the
//!   pre-coalescing data plane: every reader issues its own RPC, and the
//!   server's NIC serializes N identical large responses) and on (one
//!   leader RPC per round, followers share the published buffer). The
//!   speedup column is the headline read-throughput gain of the hot-path
//!   data plane at 8 client threads.
//!
//! Modes:
//!
//! * `hotpath [--smoke] [--out results/BENCH_hotpath.json]` — run the
//!   suite and write the JSON (`--smoke`: 1-iteration CI sizes).
//! * `hotpath --validate <file>` — schema-check a results file; exit 1
//!   on a malformed document.
//! * `hotpath --diff-keys <old> <new>` — compare key sets; exit 1 if
//!   `new` dropped any key present in `old` (schema regressions).

use ft_cache::fleet::{json_array, percentile, Json};
use ftc_bench::{header, usage_error, Cli};
use ftc_core::{Cluster, ClusterConfig, FtPolicy, HvacClient};
use ftc_net::LatencyModel;
use ftc_storage::{KeyIndex, NvmeCache};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

mod json;

/// Threads swept by the store microbenchmarks.
const THREAD_STEPS: &[usize] = &[1, 4, 8];

const USAGE: &str =
    "hotpath [--smoke] [--out FILE] | hotpath --validate FILE | hotpath --diff-keys OLD NEW";

fn main() {
    // Inspection modes first: they read files and never run a workload.
    // `--diff-keys` takes two values, so it is matched before `Cli`.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--diff-keys") {
        let [_, old, new] = argv.as_slice() else {
            usage_error(USAGE, "--diff-keys takes <old.json> <new.json>");
        };
        std::process::exit(run_diff_keys(old, new));
    }
    let cli = Cli::parse(USAGE, &["validate", "out"], &["smoke"]);
    let validate: String = cli.get("validate", String::new());
    if !validate.is_empty() {
        std::process::exit(run_validate(&validate));
    }

    let smoke = cli.flag("smoke");
    let out: String = cli.get("out", "results/BENCH_hotpath.json".to_string());
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    header(&format!(
        "hotpath data-plane bench ({}, {cores} core(s))",
        if smoke { "smoke" } else { "full" }
    ));

    // --- store microbenchmarks -------------------------------------
    let idx_iters: u64 = if smoke { 2_000 } else { 100_000 };
    let mut index_rows = Vec::new();
    for &threads in THREAD_STEPS {
        let single = bench_index(1, threads, idx_iters);
        let sharded = bench_index(KeyIndex::DEFAULT_SHARDS, threads, idx_iters);
        println!(
            "index   threads={threads} single={single:>12.0} ops/s sharded={sharded:>12.0} ops/s ({:.2}x)",
            sharded / single
        );
        index_rows.push(
            Json::obj()
                .u("threads", threads as u64)
                .f("single_ops_per_sec", single)
                .f("sharded_ops_per_sec", sharded)
                .f("speedup", sharded / single)
                .render(),
        );
    }
    let nvme_iters: u64 = if smoke { 2_000 } else { 50_000 };
    let mut nvme_rows = Vec::new();
    for &threads in THREAD_STEPS {
        let single = bench_nvme(1, threads, nvme_iters);
        let sharded = bench_nvme(NvmeCache::DEFAULT_SHARDS, threads, nvme_iters);
        println!(
            "nvme    threads={threads} single={single:>12.0} ops/s sharded={sharded:>12.0} ops/s ({:.2}x)",
            sharded / single
        );
        nvme_rows.push(
            Json::obj()
                .u("threads", threads as u64)
                .f("single_ops_per_sec", single)
                .f("sharded_ops_per_sec", sharded)
                .f("speedup", sharded / single)
                .render(),
        );
    }

    // --- full read path --------------------------------------------
    let sizes: &[usize] = if smoke {
        &[4096]
    } else {
        &[4096, 65536, 1_048_576]
    };
    let readers = if smoke { 4 } else { 8 };
    let mut read_rows = Vec::new();
    for &size in sizes {
        for &hit_pct in &[100u32, 50] {
            let reads_per_reader = match (smoke, size) {
                (true, _) => 8,
                (false, s) if s >= 1_048_576 => 32,
                (false, _) => 64,
            };
            let row = bench_read_path(size, hit_pct, readers, reads_per_reader);
            read_rows.push(row);
        }
    }

    // --- duplicate-read storm: coalescing off vs on ----------------
    let storm_sizes: &[usize] = if smoke {
        &[65_536]
    } else {
        &[65_536, 1_048_576]
    };
    let storm_rounds = if smoke { 8 } else { 64 };
    let mut storm_rows = Vec::new();
    for &size in storm_sizes {
        let row = bench_storm(size, readers, storm_rounds);
        storm_rows.push(row);
    }

    let doc = Json::obj()
        .s("bench", "hotpath")
        .u("smoke", u64::from(smoke))
        .u("cores", cores as u64)
        .raw("index", json_array(&index_rows))
        .raw("nvme", json_array(&nvme_rows))
        .raw("read_path", json_array(&read_rows))
        .raw("coalesce", json_array(&storm_rows))
        .render();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&out, format!("{doc}\n")) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}

/// KeyIndex record+owner mix: `threads` workers over a shared key space,
/// total ops/sec. `shards == 1` is the legacy single-lock layout.
fn bench_index(shards: usize, threads: usize, iters: u64) -> f64 {
    let idx = Arc::new(KeyIndex::with_shards(shards));
    let keys: Arc<Vec<String>> = Arc::new((0..4096).map(|i| format!("idx/key_{i:06}")).collect());
    // Pre-populate so `owner` hits are real lookups.
    for (i, k) in keys.iter().enumerate() {
        idx.record((i % 8) as u32, k);
    }
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let idx = Arc::clone(&idx);
            let keys = Arc::clone(&keys);
            thread::spawn(move || {
                let mut h = t as u64 + 1;
                for _ in 0..iters {
                    // Cheap LCG so the key stream differs per thread.
                    h = h
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = &keys[(h >> 33) as usize % keys.len()];
                    idx.record((h % 8) as u32, k);
                    let _ = idx.owner(k);
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    (threads as u64 * iters * 2) as f64 / t0.elapsed().as_secs_f64()
}

/// NvmeCache get-heavy loop over a resident working set; `shards == 1`
/// is the legacy single-lock layout.
fn bench_nvme(shards: usize, threads: usize, iters: u64) -> f64 {
    let cache = Arc::new(NvmeCache::sharded(u64::MAX, shards));
    let keys: Arc<Vec<String>> = Arc::new((0..2048).map(|i| format!("nvme/obj_{i:06}")).collect());
    let value = vec![7u8; 4096];
    for k in keys.iter() {
        cache.insert(k, value.as_slice());
    }
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let keys = Arc::clone(&keys);
            thread::spawn(move || {
                let mut h = t as u64 + 1;
                for _ in 0..iters {
                    h = h
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = &keys[(h >> 33) as usize % keys.len()];
                    let _ = cache.get(k);
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    (threads as u64 * iters) as f64 / t0.elapsed().as_secs_f64()
}

/// Boot a serving cluster with the Slingshot link model and the hot-path
/// data plane as configured by `coalesce`.
fn start_cluster(coalesce: bool) -> Cluster {
    let mut cfg = ClusterConfig::small(4, FtPolicy::RingRecache);
    cfg.latency = LatencyModel::slingshot();
    cfg.ft.coalesce = coalesce;
    match Cluster::start(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cluster failed to start: {e}");
            std::process::exit(1);
        }
    }
}

/// Read every path once through a throwaway client and wait for the
/// movers to land the recaches, so later reads of these paths are NVMe
/// hits.
fn warm(cluster: &Cluster, paths: &[String]) {
    let warmer = cluster.client(90);
    for p in paths {
        if let Err(e) = warmer.read(p) {
            eprintln!("warm read {p} failed: {e}");
            std::process::exit(1);
        }
    }
    if !cluster.wait_movers_drained(std::time::Duration::from_secs(10)) {
        eprintln!("movers failed to drain during warmup");
        std::process::exit(1);
    }
}

/// Full read path: `readers` clients (one per thread) reading a mix of
/// warm (NVMe-resident) and cold (PFS-only, each read once) paths.
/// Returns the rendered JSON row.
fn bench_read_path(size: usize, hit_pct: u32, readers: usize, reads_per_reader: usize) -> String {
    let cluster = start_cluster(true);
    let warm_paths = cluster.stage_dataset("hot", 32, size);
    warm(&cluster, &warm_paths);
    let cold_per_reader = reads_per_reader * (100 - hit_pct as usize) / 100;
    let cold_paths = cluster.stage_dataset("cold", cold_per_reader * readers, size);

    let total_reads = readers * reads_per_reader;
    let start = Arc::new(Barrier::new(readers + 1));
    let warm_paths = Arc::new(warm_paths);
    let cold_paths = Arc::new(cold_paths);
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            let client = cluster.client(r as u32);
            let warm_paths = Arc::clone(&warm_paths);
            let cold_paths = Arc::clone(&cold_paths);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                let mut lats = Vec::with_capacity(reads_per_reader);
                let mut errors = 0u64;
                let mut cold_next = r * cold_per_reader;
                for i in 0..reads_per_reader {
                    // Even spread of misses: a 50% ratio alternates, 100%
                    // never goes cold.
                    let go_cold = cold_per_reader > 0
                        && i * cold_per_reader / reads_per_reader
                            != (i + 1) * cold_per_reader / reads_per_reader;
                    let path = if go_cold {
                        let p = &cold_paths[cold_next];
                        cold_next += 1;
                        p
                    } else {
                        &warm_paths[(r * reads_per_reader + i) % warm_paths.len()]
                    };
                    let t0 = Instant::now();
                    if client.read(path).is_err() {
                        errors += 1;
                    }
                    lats.push(t0.elapsed().as_micros() as u64);
                }
                (lats, errors)
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    let mut lats = Vec::with_capacity(total_reads);
    let mut errors = 0u64;
    for h in handles {
        if let Ok((l, e)) = h.join() {
            lats.extend(l);
            errors += e;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    lats.sort_unstable();
    let reads_per_sec = total_reads as f64 / secs;
    let mb_per_sec = (total_reads * size) as f64 / 1e6 / secs;
    println!(
        "read    size={size:<8} hit={hit_pct:>3}% readers={readers} reads={total_reads} \
         {reads_per_sec:>10.0} reads/s {mb_per_sec:>8.1} MB/s p50={}us p99={}us p999={}us",
        percentile(&lats, 0.50),
        percentile(&lats, 0.99),
        percentile(&lats, 0.999),
    );
    cluster.shutdown();
    Json::obj()
        .u("value_bytes", size as u64)
        .u("hit_pct", u64::from(hit_pct))
        .u("readers", readers as u64)
        .u("reads", total_reads as u64)
        .u("errors", errors)
        .f("reads_per_sec", reads_per_sec)
        .f("mb_per_sec", mb_per_sec)
        .u("p50_us", percentile(&lats, 0.50))
        .u("p99_us", percentile(&lats, 0.99))
        .u("p999_us", percentile(&lats, 0.999))
        .render()
}

/// One storm arm: `readers` threads sharing one client all read the same
/// hot key each round, separated by barriers so every round is a clean
/// duplicate burst. Returns `(reads, errors, reads_per_sec, metrics)`.
fn storm_arm(
    coalesce: bool,
    size: usize,
    readers: usize,
    rounds: usize,
) -> (u64, u64, f64, (u64, u64, u64)) {
    let cluster = start_cluster(coalesce);
    let paths = cluster.stage_dataset("storm", 1, size);
    warm(&cluster, &paths);
    let client = cluster.client(0);
    let hot = Arc::new(paths[0].clone());
    // +1: the timing thread participates in both barriers.
    let start = Arc::new(Barrier::new(readers + 1));
    let done = Arc::new(Barrier::new(readers + 1));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let client: Arc<HvacClient> = Arc::clone(&client);
            let hot = Arc::clone(&hot);
            let start = Arc::clone(&start);
            let done = Arc::clone(&done);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut errors = 0u64;
                loop {
                    start.wait();
                    // ordering: Relaxed — the barrier orders the flag
                    // write; this is a plain latch read after it.
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        return errors;
                    }
                    if client.read(&hot).is_err() {
                        errors += 1;
                    }
                    done.wait();
                }
            })
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..rounds {
        start.wait();
        done.wait();
    }
    let secs = t0.elapsed().as_secs_f64();
    // ordering: Relaxed — the next barrier orders this write for readers.
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    start.wait();
    let mut errors = 0u64;
    for h in handles {
        errors += h.join().unwrap_or(0);
    }
    let reads = (readers * rounds) as u64;
    let snap = client.metrics().snapshot();
    let stats = (
        snap.singleflight_leaders,
        snap.coalesced_reads,
        snap.coalesced_stale_retries,
    );
    cluster.shutdown();
    (reads, errors, reads as f64 / secs, stats)
}

/// Duplicate-read storm at one value size: coalescing off (legacy data
/// plane) vs on (hot path). Returns the rendered JSON row.
fn bench_storm(size: usize, readers: usize, rounds: usize) -> String {
    let (reads, off_errors, off_rps, _) = storm_arm(false, size, readers, rounds);
    let (_, on_errors, on_rps, (leaders, coalesced, stale)) =
        storm_arm(true, size, readers, rounds);
    let speedup = on_rps / off_rps;
    println!(
        "storm   size={size:<8} readers={readers} rounds={rounds} off={off_rps:>9.0} reads/s \
         on={on_rps:>9.0} reads/s ({speedup:.2}x) leaders={leaders} coalesced={coalesced} stale={stale}"
    );
    Json::obj()
        .u("value_bytes", size as u64)
        .u("readers", readers as u64)
        .u("rounds", rounds as u64)
        .u("reads", reads)
        .u("errors", off_errors + on_errors)
        .f("off_reads_per_sec", off_rps)
        .f("on_reads_per_sec", on_rps)
        .f("speedup", speedup)
        .u("leaders", leaders)
        .u("coalesced", coalesced)
        .u("stale_retries", stale)
        .render()
}

// ---------------------------------------------------------------------
// Inspection modes
// ---------------------------------------------------------------------

/// Per-entry required numeric keys for each array section.
const SCHEMA: &[(&str, &[&str])] = &[
    (
        "index",
        &[
            "threads",
            "single_ops_per_sec",
            "sharded_ops_per_sec",
            "speedup",
        ],
    ),
    (
        "nvme",
        &[
            "threads",
            "single_ops_per_sec",
            "sharded_ops_per_sec",
            "speedup",
        ],
    ),
    (
        "read_path",
        &[
            "value_bytes",
            "hit_pct",
            "readers",
            "reads",
            "errors",
            "reads_per_sec",
            "mb_per_sec",
            "p50_us",
            "p99_us",
            "p999_us",
        ],
    ),
    (
        "coalesce",
        &[
            "value_bytes",
            "readers",
            "rounds",
            "reads",
            "errors",
            "off_reads_per_sec",
            "on_reads_per_sec",
            "speedup",
            "leaders",
            "coalesced",
            "stale_retries",
        ],
    ),
];

fn load(path: &str) -> Result<json::Val, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Schema-check one results document; returns the process exit code.
fn run_validate(path: &str) -> i32 {
    let doc = match load(path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("validate: {e}");
            return 1;
        }
    };
    let mut problems = Vec::new();
    match doc.get("bench").and_then(json::Val::as_str) {
        Some("hotpath") => {}
        other => problems.push(format!("bench: expected \"hotpath\", got {other:?}")),
    }
    for key in ["smoke", "cores"] {
        if doc.get(key).and_then(json::Val::as_num).is_none() {
            problems.push(format!("{key}: missing or not a number"));
        }
    }
    for &(section, fields) in SCHEMA {
        let Some(entries) = doc.get(section).and_then(json::Val::as_arr) else {
            problems.push(format!("{section}: missing or not an array"));
            continue;
        };
        if entries.is_empty() {
            problems.push(format!("{section}: empty"));
        }
        for (i, entry) in entries.iter().enumerate() {
            for field in fields {
                if entry.get(field).and_then(json::Val::as_num).is_none() {
                    problems.push(format!("{section}[{i}].{field}: missing or not a number"));
                }
            }
        }
    }
    if problems.is_empty() {
        println!("validate: {path} ok");
        0
    } else {
        for p in &problems {
            eprintln!("validate: {p}");
        }
        1
    }
}

/// Flattened key paths of a results document: top-level keys plus the
/// union of entry keys inside each top-level array (`section[].field`).
fn key_paths(doc: &json::Val) -> Vec<String> {
    let mut out = Vec::new();
    if let json::Val::Obj(fields) = doc {
        for (k, v) in fields {
            out.push(k.clone());
            if let json::Val::Arr(items) = v {
                for item in items {
                    if let json::Val::Obj(inner) = item {
                        for (ik, _) in inner {
                            let path = format!("{k}[].{ik}");
                            if !out.contains(&path) {
                                out.push(path);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Report keys present in `old` but missing from `new`; returns the
/// process exit code (1 when any key was removed).
fn run_diff_keys(old: &str, new: &str) -> i32 {
    let (old_doc, new_doc) = match (load(old), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("diff-keys: {e}");
            return 1;
        }
    };
    let new_keys = key_paths(&new_doc);
    let removed: Vec<String> = key_paths(&old_doc)
        .into_iter()
        .filter(|k| !new_keys.contains(k))
        .collect();
    if removed.is_empty() {
        println!("diff-keys: no keys removed ({old} -> {new})");
        0
    } else {
        for k in &removed {
            eprintln!("diff-keys: removed key {k}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(coalesce_extra: &str) -> json::Val {
        let text = format!(
            r#"{{"bench": "hotpath", "smoke": 1, "cores": 1,
                "index": [{{"threads": 1, "single_ops_per_sec": 1.0, "sharded_ops_per_sec": 2.0, "speedup": 2.0}}],
                "nvme": [{{"threads": 8, "single_ops_per_sec": 1.0, "sharded_ops_per_sec": 2.0, "speedup": 2.0}}],
                "read_path": [{{"value_bytes": 4096, "hit_pct": 100, "readers": 8, "reads": 64,
                    "errors": 0, "reads_per_sec": 100.0, "mb_per_sec": 1.0,
                    "p50_us": 10, "p99_us": 20, "p999_us": 30}}],
                "coalesce": [{{"value_bytes": 65536, "readers": 8, "rounds": 8, "reads": 64,
                    "errors": 0, "off_reads_per_sec": 10.0, "on_reads_per_sec": 30.0,
                    "speedup": 3.0, "leaders": 8, "coalesced": 56, "stale_retries": 0{coalesce_extra}}}]}}"#
        );
        match json::parse(&text) {
            Ok(v) => v,
            Err(e) => panic!("fixture must parse: {e}"),
        }
    }

    #[test]
    fn key_paths_cover_sections_and_entry_fields() {
        let paths = key_paths(&doc(""));
        assert!(paths.contains(&"bench".to_string()));
        assert!(paths.contains(&"index[].speedup".to_string()));
        assert!(paths.contains(&"coalesce[].stale_retries".to_string()));
    }

    #[test]
    fn added_keys_are_not_removals() {
        let old = key_paths(&doc(""));
        let new = key_paths(&doc(r#", "bonus": 1"#));
        let removed: Vec<_> = old.iter().filter(|k| !new.contains(k)).collect();
        assert!(removed.is_empty(), "additions must not flag: {removed:?}");
        // And the reverse direction does flag the dropped key.
        let dropped: Vec<_> = new.iter().filter(|k| !old.contains(k)).collect();
        assert_eq!(dropped, vec!["coalesce[].bonus"]);
    }

    #[test]
    fn schema_matches_what_the_bench_emits() {
        // Every field the validator demands is present in the fixture,
        // which mirrors the writer's Json construction.
        let d = doc("");
        for &(section, fields) in SCHEMA {
            let entries = match d.get(section).and_then(json::Val::as_arr) {
                Some(e) => e,
                None => panic!("{section} missing"),
            };
            for field in fields {
                assert!(
                    entries[0].get(field).and_then(json::Val::as_num).is_some(),
                    "{section}[].{field}"
                );
            }
        }
    }
}
