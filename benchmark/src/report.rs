//! From raw rounds to named metrics, gates, and output documents.

use crate::layers::{self, LayerTimings};
use crate::load::Epoch;
use crate::round::{run_round, Round};
use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER, SCHEMA};
use crate::trace::Spans;
use ft_cache::fleet::Json;
use std::path::Path;
use std::time::Duration;

/// Where and on what the numbers were taken.
pub struct Provenance {
    pub commit: String,
    pub cores: usize,
}

impl Provenance {
    /// Refuses to report from a single core: two reader threads and three
    /// servers time-slicing one CPU measure the scheduler.
    pub fn capture() -> Result<Provenance, String> {
        let cores = std::thread::available_parallelism()
            .map_err(|e| format!("cannot read the core count: {e}"))?
            .get();
        if cores < 2 {
            return Err(format!("refusing to report: {cores} core, need at least 2"));
        }
        Ok(Provenance {
            commit: head_commit().unwrap_or_else(|| "unknown".into()),
            cores,
        })
    }
}

/// `HEAD` of the checkout, read from `.git` directly: the driver's
/// checkout is not a repository, and `git` would search parent
/// directories for one.
fn head_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(sha.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    /// Observations behind the value (reads, rounds, timed chunks).
    pub samples: u64,
}

fn v(name: &'static str, value: f64, samples: u64) -> Value {
    Value {
        name,
        value,
        samples,
    }
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub traced: bool,
    pub values: Vec<Value>,
    /// Why the correctness gate failed, one line each.
    pub violations: Vec<String>,
    /// Rounds discarded and measured again (see [`Round::false_verdicts`]).
    pub reruns: usize,
}

/// Nearest-rank quantile of unsorted samples (the workspace's one
/// percentile definition, `ftc_obs::nearest_rank`). 0 when empty.
fn quantile<T: Copy + PartialOrd + Default>(samples: &[T], q: f64) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    ftc_obs::nearest_rank(sorted.len(), q)
        .map(|i| sorted[i])
        .unwrap_or_default()
}

fn ok_reads(epochs: &[&Epoch]) -> u64 {
    epochs.iter().map(|e| e.lat_ns.len() as u64).sum()
}

fn reads_per_s(epochs: &[&Epoch]) -> f64 {
    let wall: Duration = epochs.iter().map(|e| e.wall).sum();
    ok_reads(epochs) as f64 / wall.as_secs_f64().max(1e-9)
}

fn pooled_latencies(epochs: &[&Epoch]) -> Vec<u64> {
    epochs
        .iter()
        .flat_map(|e| e.lat_ns.iter().copied())
        .collect()
}

/// The fastest half of the run's epochs, by wall time per read.
///
/// Interference from the shared host only ever slows an epoch (on the
/// 2-core reference host whole seconds run 20-40 % slow, while a pure
/// CPU probe keeps its pace), so the slow half is treated as disturbed
/// and rate and latency are computed over the reads of the quiet half.
/// A change that slows every epoch moves the quiet half with it; one
/// that stalls a minority of epochs shows in `worst_epoch_ms` instead.
fn quiet_half<'a>(epochs: &[&'a Epoch]) -> Vec<&'a Epoch> {
    let mut by_pace: Vec<&Epoch> = epochs.to_vec();
    by_pace.sort_by(|a, b| {
        let pace = |e: &Epoch| e.wall.as_secs_f64() / e.attempted().max(1) as f64;
        pace(a).partial_cmp(&pace(b)).expect("paces are finite")
    });
    by_pace.truncate(epochs.len().div_ceil(2));
    by_pace
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(rounds: &[Round]) -> Vec<Value> {
    let epochs: Vec<&Epoch> = rounds.iter().flat_map(|r| &r.epochs).collect();
    let quiet = quiet_half(&epochs);
    let lat = pooled_latencies(&quiet);
    let reads = lat.len() as u64;
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let n = rounds.len() as u64;
    // Every round of `failover` holds one stopped-node epoch, so the
    // calmest round's slowest epoch still is one; elsewhere the minimum
    // over rounds sheds the host's own stalls.
    let worst_epoch = per_round(&|r| {
        let worst = r.epochs.iter().map(|e| e.wall).max().unwrap_or_default();
        worst.as_secs_f64() * 1e3
    })
    .into_iter()
    .fold(f64::INFINITY, f64::min);
    vec![
        v(
            "setup_s",
            quantile(&per_round(&|r| r.setup.as_secs_f64()), 0.5),
            n,
        ),
        v("reads_per_s", reads_per_s(&quiet), reads),
        v("read_p50_us", quantile(&lat, 0.50) as f64 / 1e3, reads),
        v("server_rss_mb", quantile(&per_round(&|r| r.rss_mb), 0.5), n),
        v("worst_epoch_ms", worst_epoch, n),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Option<Duration>) -> f64 {
    d.map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

/// The per-layer metrics of a traced run: counts harvested from the
/// fleet pass, timings from the layer replay, and the closure lines.
pub fn per_layer(round: &Round, timings: &LayerTimings, spans: usize) -> Vec<Value> {
    let all: Vec<&Epoch> = round.epochs.iter().collect();
    let reads = ok_reads(&all);
    let (traced, untraced): (Vec<&Epoch>, Vec<&Epoch>) = all.iter().partition(|e| e.traced);
    // Median per-epoch rate on each side: robust to the two failure
    // epochs of `failover`, which land on one side each.
    let median_rate = |es: &[&Epoch]| {
        let rates: Vec<f64> = es.iter().map(|e| reads_per_s(&[e])).collect();
        quantile(&rates, 0.5)
    };
    let (rate_untraced, rate_traced) = (median_rate(&untraced), median_rate(&traced));
    let traced_p50 = quantile(&pooled_latencies(&traced), 0.5) as f64 / 1e3;
    let traced_reads = ok_reads(&traced);

    let mut out: Vec<Value> = timings
        .stages
        .iter()
        .map(|s| v(s.name, s.median, s.samples))
        .collect();
    let t = |name: &str| timings.get(name);
    let tcp_overhead = t("wire.tcp_call_us") - t("wire.loopback_floor_us");
    let read_sum = t("core.client_overhead_us") + t("wire.tcp_call_us") + t("core.server_hit_us");
    out.extend([
        v("wire.tcp_overhead_us", tcp_overhead, 1),
        v("wire.goodput_ratio", timings.goodput_ratio, 1),
        v("trace.read_sum_us", read_sum, 1),
        v(
            "trace.unaccounted_pct",
            100.0 * ratio(traced_p50 - read_sum, traced_p50),
            traced_reads,
        ),
        v(
            "trace.overhead_pct",
            100.0 * ratio(rate_untraced - rate_traced, rate_untraced),
            all.len() as u64,
        ),
        v("trace.spans", spans as f64, 1),
        v("fleet.read_p50_us", traced_p50, traced_reads),
        v(
            "fleet.read_p99_us",
            quantile(&pooled_latencies(&all), 0.99) as f64 / 1e3,
            reads,
        ),
        v(
            "fleet.reads_per_s",
            reads_per_s(&untraced),
            ok_reads(&untraced),
        ),
        v("fleet.epochs", all.len() as f64, 1),
        v("fleet.setup_s", round.setup.as_secs_f64(), 1),
    ]);

    let s = &round.servers;
    let c = &round.client;
    out.extend([
        v(
            "storage.nvme.hit_ratio",
            ratio(s.nvme_hits, s.nvme_hits + s.nvme_misses),
            reads,
        ),
        v("storage.nvme.evictions", s.evictions, reads),
        v("storage.pfs.reads", s.pfs_reads, reads),
        v("storage.nvme.resident_mb", round.resident_mb, 1),
        v("storage.mover.recached", round.drained.recached as f64, 1),
        v("core.server.sheds", round.drained.sheds as f64, 1),
        v("core.client.reads_ok", c.reads_ok as f64, reads),
        v("core.client.nvme_hits", c.nvme_hits as f64, reads),
        v(
            "core.client.pfs_via_server",
            c.pfs_fetches_via_server as f64,
            reads,
        ),
        v("core.client.pfs_direct", c.pfs_direct_reads as f64, reads),
        v("core.client.rpc_timeouts", c.rpc_timeouts as f64, reads),
        v("core.client.retries", c.retries as f64, reads),
        v(
            "core.client.coalesced_reads",
            c.coalesced_reads as f64,
            reads,
        ),
        v(
            "core.client.nodes_declared_failed",
            c.nodes_declared_failed as f64,
            reads,
        ),
    ]);

    // `failover` only; every other workload reports zeros here.
    let f = round.failover.as_ref();
    let last = round.epochs.last();
    out.extend([
        v(
            "core.detector.detect_ms",
            ms(f.and_then(|f| f.detect)),
            f.is_some() as u64,
        ),
        v(
            "core.recovery.quiesce_ms",
            ms(f.and_then(|f| f.quiesce)),
            f.is_some() as u64,
        ),
        v(
            "failover.window_ms",
            ms(f.map(|f| f.window)),
            f.is_some() as u64,
        ),
        v(
            "core.recovery.lost_keys",
            f.map_or(0.0, |f| f.lost_keys as f64),
            1,
        ),
        v(
            "core.recovery.recache_pushed",
            f.map_or(0.0, |f| f.recovery.recache_pushed as f64),
            1,
        ),
        v(
            "core.recovery.recache_failed",
            f.map_or(0.0, |f| f.recovery.recache_failed as f64),
            1,
        ),
        v(
            "core.recovery.pfs_reads_per_lost_key",
            f.map_or(0.0, |f| ratio(f.pfs_reads, f.lost_keys as f64)),
            f.map_or(0, |f| f.lost_keys),
        ),
        v(
            "core.recovery.final_nvme_ratio",
            f.and(last)
                .map_or(0.0, |e| ratio(e.nvme as f64, e.attempted() as f64)),
            f.and(last).map_or(0, |e| e.attempted()),
        ),
    ]);
    out
}

/// The correctness gate over one round; returns what it found wrong.
fn violations(w: &Workload, round: &Round) -> Vec<String> {
    let mut bad = Vec::new();
    let failed = round.warm_failed + round.epochs.iter().map(|e| e.failed).sum::<u64>();
    if failed > 0 {
        bad.push(format!("{failed} reads failed or returned wrong bytes"));
    }
    if w.warm() && !w.failover && (round.servers.pfs_reads > 0.0 || round.servers.evictions > 0.0) {
        bad.push(format!(
            "warm timed section saw {} PFS reads and {} evictions",
            round.servers.pfs_reads, round.servers.evictions
        ));
    }
    if round.false_verdicts > 0 {
        bad.push(format!(
            "{} healthy nodes were declared failed and the rerun budget is spent",
            round.false_verdicts
        ));
    }
    if w.failover {
        if round.client.nodes_declared_failed == 0 {
            bad.push("the SIGSTOP did not take: no node was declared failed".into());
        }
        match round.epochs.last() {
            Some(e) if e.nvme == e.attempted() => {}
            _ => bad.push("the cache did not heal: the last epoch was not all NVMe hits".into()),
        }
    }
    bad
}

fn counts(rounds: &[Round]) -> (u64, u64) {
    let attempted = rounds
        .iter()
        .map(|r| r.warm_attempted + r.epochs.iter().map(Epoch::attempted).sum::<u64>())
        .sum();
    let failed = rounds
        .iter()
        .map(|r| r.warm_failed + r.epochs.iter().map(|e| e.failed).sum::<u64>())
        .sum();
    (attempted, failed)
}

/// Rounds a run may discard and measure again because the host disturbed
/// them (see [`Round::false_verdicts`]); one more and the run fails.
const MAX_RERUNS: usize = 2;

/// What [`undisturbed`] collected: the rounds kept, each with whatever
/// the attempt produced beside it, and the rounds set aside.
struct Measured<T> {
    kept: Vec<(Round, T)>,
    discarded: Vec<Round>,
}

/// Collect `want` rounds from `attempt`, setting aside up to
/// [`MAX_RERUNS`] in which a healthy node was declared failed. Returns
/// the kept rounds (with whatever `attempt` produced beside each) and
/// the discarded ones, whose reads still count as attempted.
fn undisturbed<T>(
    want: usize,
    mut attempt: impl FnMut() -> Result<(Round, T), String>,
) -> Result<Measured<T>, String> {
    let (mut kept, mut discarded) = (Vec::new(), Vec::new());
    while kept.len() < want {
        let (round, extra) = attempt()?;
        if round.false_verdicts > 0 && discarded.len() < MAX_RERUNS {
            discarded.push(round);
        } else {
            kept.push((round, extra));
        }
    }
    Ok(Measured { kept, discarded })
}

fn assemble(
    w: &Workload,
    kept: &[Round],
    discarded: &[Round],
    traced: bool,
    values: Vec<Value>,
) -> RunResult {
    let violations: Vec<String> = kept.iter().flat_map(|r| violations(w, r)).collect();
    let (attempted, failed) = counts(kept);
    let (rerun_attempted, rerun_failed) = counts(discarded);
    RunResult {
        correct: violations.is_empty() && rerun_failed == 0,
        attempted: attempted + rerun_attempted,
        failed: failed + rerun_failed,
        traced,
        values,
        violations,
        reruns: discarded.len(),
    }
}

/// `rounds` fleets, an equal share of `seconds` each, no tracing.
pub fn untraced_run(
    server: &Path,
    w: &Workload,
    seed: u64,
    seconds: Duration,
    rounds: usize,
) -> Result<RunResult, String> {
    let mut epoch = 0;
    let section = seconds / rounds as u32;
    let Measured { kept, discarded } = undisturbed(rounds, || {
        run_round(server, w, seed, section, &mut epoch, None).map(|r| (r, ()))
    })?;
    let kept: Vec<Round> = kept.into_iter().map(|(r, ())| r).collect();
    let values = end_to_end(&kept);
    Ok(assemble(w, &kept, &discarded, false, values))
}

/// Share of a traced run spent reading from the fleet; the layer replay
/// gets [`LAYER_SHARE`], the rest is set-up slack.
const FLEET_SHARE: f64 = 0.4;
const LAYER_SHARE: f64 = 0.5;

/// One fleet with spans on every other epoch, then the layer replay.
pub fn traced_run(
    server: &Path,
    w: &Workload,
    seed: u64,
    seconds: Duration,
    prov: &Provenance,
) -> Result<RunResult, String> {
    let section = seconds.mul_f64(FLEET_SHARE);
    let Measured {
        mut kept,
        discarded,
    } = undisturbed(1, || {
        let mut spans = Spans::new();
        run_round(server, w, seed, section, &mut 0, Some(&mut spans)).map(|r| (r, spans))
    })?;
    let (round, mut spans) = kept
        .pop()
        .expect("undisturbed returns the one round asked for");
    let timings = layers::replay(w, seed, seconds.mul_f64(LAYER_SHARE), &mut spans)?;
    let path = Path::new("benchmark/out").join(format!("trace-{}.jsonl", w.name));
    let header = provenance_json(prov, w, seed, spans.len() as u64).render();
    spans
        .write(&path, &header)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let values = per_layer(&round, &timings, spans.len());
    Ok(assemble(w, &[round], &discarded, true, values))
}

fn provenance_json(prov: &Provenance, w: &Workload, seed: u64, samples: u64) -> Json {
    Json::obj()
        .s("schema", SCHEMA)
        .s("commit", &prov.commit)
        .u("cores", prov.cores as u64)
        .s("workload", w.name)
        .u("seed", seed)
        .u("samples", samples)
}

fn catalogue(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

impl RunResult {
    fn value(&self, name: &str) -> &Value {
        self.values
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("metric {name} is in the catalogue but was not measured"))
    }

    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; values with all their digits.
    pub fn result_line(&self) -> String {
        let metrics = catalogue(self.traced)
            .iter()
            .fold(Json::obj(), |j, m| {
                let one = Json::obj()
                    .raw("value", format!("{}", self.value(m.name).value))
                    .s("unit", m.unit);
                j.raw(m.name, one.render())
            })
            .render();
        Json::obj()
            .raw("correct", self.correct.to_string())
            .u("attempted", self.attempted)
            .u("failed", self.failed)
            .raw("metrics", metrics)
            .render()
    }

    /// Print the metric table, the provenance-carrying report document
    /// (also written under `benchmark/out/`), and the result line last.
    pub fn print(&self, w: &Workload, seed: u64, seconds: u64, prov: &Provenance) {
        println!(
            "== {} ({}) seed={seed} seconds={seconds} cores={} commit={} ==",
            w.name,
            if self.traced { "traced" } else { "untraced" },
            prov.cores,
            prov.commit
        );
        for m in catalogue(self.traced) {
            let val = self.value(m.name);
            let tail = match m.bound {
                Some(b) => format!("bound={:.0}%", b * 100.0),
                None => format!("-> {}", m.moves),
            };
            println!(
                "{:<40} {:>14.3} {:<6} samples={:<8} {tail}",
                m.name, val.value, m.unit, val.samples
            );
        }
        println!(
            "{:<40} {:>14.6} {:<6} samples={}",
            "failed_read_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted
        );
        if self.reruns > 0 {
            println!(
                "RERUN {} rounds discarded: the host stalled past the TTL and a healthy node was declared failed",
                self.reruns
            );
        }
        for line in &self.violations {
            println!("GATE {line}");
        }
        let samples = self.values.iter().map(|v| v.samples).max().unwrap_or(0);
        let result = self.result_line();
        let doc = provenance_json(prov, w, seed, samples)
            .u("seconds", seconds)
            .raw("trace", (self.traced as u8).to_string())
            .raw("result", result.clone())
            .render();
        let path = format!(
            "benchmark/out/report-{}-trace{}.json",
            w.name, self.traced as u8
        );
        let written =
            std::fs::create_dir_all("benchmark/out").and_then(|()| std::fs::write(&path, &doc));
        if let Err(e) = written {
            eprintln!("ftc-benchmark: {path}: {e}");
        }
        println!("REPORT {doc}");
        println!("{result}");
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `repeat` applies the driver's own rule.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in metric values"));
    let m = d.len();
    assert!(m >= 2, "quartiles need at least two values");
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// Run the whole set `n` times (start order alternates), then print
/// median, quartiles and spread per metric and workload, and check each
/// spread against the metric's bound. A metric whose spread exceeds its
/// bound is marked for demotion to per-layer.
pub fn repeat(
    n: usize,
    workloads: &[&'static Workload],
    mut run: impl FnMut(&Workload, u64) -> Result<RunResult, String>,
) -> Result<(), String> {
    if n < 2 {
        return Err("--repeat needs at least 2 runs".into());
    }
    let mut results: Vec<Vec<RunResult>> = workloads.iter().map(|_| Vec::new()).collect();
    for i in 0..n {
        let mut order: Vec<usize> = (0..workloads.len()).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            let r = run(workloads[wi], i as u64)?;
            println!(
                "RUN {i} {} correct={} reruns={} {}",
                workloads[wi].name,
                r.correct,
                r.reruns,
                r.values
                    .iter()
                    .map(|v| format!("{}={:.3}", v.name, v.value))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            results[wi].push(r);
        }
    }
    let mut demoted = 0;
    println!(
        "{:<12} {:<40} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (w, runs) in workloads.iter().zip(&results) {
        if !runs.iter().all(|r| r.correct) {
            return Err(format!("{}: a run failed its correctness gate", w.name));
        }
        for m in catalogue(runs[0].traced) {
            let vals: Vec<f64> = runs.iter().map(|r| r.value(m.name).value).collect();
            let [q1, med, q3] = quartiles(&vals);
            let spread = ratio(q3 - q1, med.abs());
            let verdict = match m.bound {
                // setup_s is held to its bound between sets of runs, not
                // within one: its spread is reported, not judged.
                Some(b) if m.name != "setup_s" && spread > b => {
                    demoted += 1;
                    "DEMOTE (spread exceeds bound)"
                }
                Some(b) if spread > b / 3.0 => "holds (above a third of the bound)",
                Some(_) => "holds",
                None => "",
            };
            println!(
                "{:<12} {:<40} {:>12.3} {:>12.3} {:>12.3} {:>7.2}% {:>6}  {verdict}",
                w.name,
                m.name,
                med,
                q1,
                q3,
                spread * 100.0,
                m.bound
                    .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    if demoted > 0 {
        return Err(format!(
            "{demoted} metric x workload spreads exceed their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Drained, Scrape};
    use crate::layers::Stage;
    use crate::spec;
    use std::collections::BTreeSet;

    fn fake_round() -> Round {
        Round {
            setup: Duration::from_millis(900),
            epochs: vec![
                Epoch {
                    wall: Duration::from_millis(100),
                    lat_ns: vec![50_000; 10],
                    nvme: 10,
                    ..Epoch::default()
                },
                Epoch {
                    wall: Duration::from_millis(200),
                    lat_ns: vec![70_000; 10],
                    nvme: 10,
                    traced: true,
                    ..Epoch::default()
                },
            ],
            warm_attempted: 10,
            warm_failed: 0,
            servers: Scrape::default(),
            resident_mb: 1.0,
            client: Default::default(),
            rss_mb: 64.0,
            drained: Drained::default(),
            failover: None,
            false_verdicts: 0,
        }
    }

    fn names(values: &[Value]) -> BTreeSet<&'static str> {
        values.iter().map(|v| v.name).collect()
    }

    #[test]
    fn output_key_sets_are_exactly_the_catalogue() {
        let e2e = end_to_end(&[fake_round(), fake_round(), fake_round()]);
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(names(&e2e), END_TO_END.iter().map(|m| m.name).collect());

        let timings = LayerTimings {
            stages: layers::STAGES
                .iter()
                .map(|&name| Stage {
                    name,
                    median: 1.0,
                    samples: 1,
                })
                .collect(),
            goodput_ratio: 0.9,
        };
        let layer = per_layer(&fake_round(), &timings, 0);
        assert_eq!(layer.len(), PER_LAYER.len());
        assert_eq!(names(&layer), PER_LAYER.iter().map(|m| m.name).collect());
    }

    #[test]
    fn end_to_end_arithmetic() {
        let e2e = end_to_end(&[fake_round()]);
        let get = |n: &str| e2e.iter().find(|v| v.name == n).expect(n).value;
        // Quiet half of the two epochs: the 100 ms one.
        assert!((get("reads_per_s") - 10.0 / 0.1).abs() < 1e-9);
        assert_eq!(get("read_p50_us"), 50.0);
        assert_eq!(get("worst_epoch_ms"), 200.0);
        assert_eq!(get("setup_s"), 0.9);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = RunResult {
            correct: true,
            attempted: 30,
            failed: 0,
            traced: false,
            values: end_to_end(&[fake_round()]),
            violations: Vec::new(),
            reruns: 0,
        };
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 30, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.9, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn gate_flags_cold_reads_on_a_warm_workload() {
        let hit = spec::workload("hit_small").expect("hit_small");
        let mut r = fake_round();
        assert!(violations(hit, &r).is_empty());
        r.servers.pfs_reads = 1.0;
        assert_eq!(violations(hit, &r).len(), 1);
        r.false_verdicts = 1;
        assert_eq!(violations(hit, &r).len(), 2);
        let failover = spec::workload("failover").expect("failover");
        // No declaration, so the injection did not take.
        assert_eq!(violations(failover, &fake_round()).len(), 1);
    }

    #[test]
    fn disturbed_rounds_are_rerun_within_a_budget() {
        // Verdicts of successive attempts: two disturbed rounds are set
        // aside, the third is out of budget and kept for the gate.
        let mut verdicts = [1, 0, 1, 1, 0].into_iter();
        let Measured { kept, discarded } = undisturbed(3, || {
            let mut r = fake_round();
            r.false_verdicts = verdicts.next().expect("no more than five attempts");
            Ok((r, ()))
        })
        .expect("attempts succeed");
        let kept: Vec<u64> = kept.iter().map(|(r, ())| r.false_verdicts).collect();
        assert_eq!((kept, discarded.len()), (vec![0, 1, 0], MAX_RERUNS));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), [2.5, 4.0, 5.5]);
    }
}
