//! `ftc-benchmark` — the FT-Cache benchmark.
//!
//! Boots a real fleet of three `ftc-server` processes on loopback, drives
//! it from one process (one shared `HvacClient` over `TcpTransport`, two
//! closed-loop reader threads), verifies every read, and prints every
//! metric by name and unit. See `benchmark/README.md` for the catalogue.
//!
//! ```text
//! bash benchmark/run.sh                              # all four workloads
//! bash benchmark/run.sh --trace 1                    # per-layer metrics + span files
//! bash benchmark/run.sh --workload hit_small --seed 3 --seconds 10 --trace 0
//! bash benchmark/run.sh --repeat 10                  # medians, quartiles, spread vs bound
//! bash benchmark/run.sh --smoke                      # ~10 s sizing of the whole set
//! ```
//!
//! The last line of standard output of a single-workload run is the
//! result object the driver reads.

mod fleet;
mod layers;
mod load;
mod report;
mod round;
mod spec;
mod trace;

use ft_cache::fleet::Args;
use report::{Provenance, RunResult};
use spec::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: ftc-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N] [--smoke] [--server PATH] [--contract]";

/// Seconds per workload under `--smoke`, in one round instead of
/// [`spec::ROUNDS`]: the whole set in about ten seconds.
const SMOKE_SECONDS: u64 = 2;

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    rounds: usize,
    repeat: usize,
    server: PathBuf,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Option<Options>, String> {
    let args = Args::parse(
        argv,
        &["workload", "seed", "seconds", "trace", "repeat", "server"],
        &["smoke", "contract"],
    )?;
    if args.flag("contract") {
        print!("{}", spec::contract_json());
        return Ok(None);
    }
    let workloads = match args.get("workload").unwrap_or("all") {
        "all" => WORKLOADS.iter().collect(),
        name => vec![spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?],
    };
    let default_seconds = if args.flag("smoke") {
        SMOKE_SECONDS
    } else {
        spec::RUN_SECONDS
    };
    let seconds = args.parsed_or("seconds", default_seconds)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: want 1..=60"));
    }
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: want 0 or 1")),
    };
    let server = match args.get("server") {
        Some(p) => PathBuf::from(p),
        None => Path::new(&std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
            .join("release/ftc-server"),
    };
    Ok(Some(Options {
        workloads,
        seed: args.parsed_or("seed", 1)?,
        seconds,
        trace,
        rounds: if args.flag("smoke") { 1 } else { spec::ROUNDS },
        repeat: args.parsed_or("repeat", 0)?,
        server,
    }))
}

fn run_one(o: &Options, w: &Workload, seed: u64, prov: &Provenance) -> Result<RunResult, String> {
    let seconds = Duration::from_secs(o.seconds);
    if o.trace {
        report::traced_run(&o.server, w, seed, seconds, prov)
    } else {
        report::untraced_run(&o.server, w, seed, seconds, o.rounds)
    }
}

fn run(o: &Options) -> Result<(), String> {
    let prov = Provenance::capture()?;
    if o.repeat > 0 {
        return report::repeat(o.repeat, &o.workloads, |w, seed| {
            run_one(o, w, o.seed + seed, &prov)
        });
    }
    let mut correct = true;
    for w in &o.workloads {
        let result = run_one(o, w, o.seed, &prov)?;
        result.print(w, o.seed, o.seconds, &prov);
        correct &= result.correct;
    }
    if correct {
        Ok(())
    } else {
        Err("correctness gate failed (see the GATE lines)".into())
    }
}

fn main() -> ExitCode {
    let options = match parse(std::env::args().skip(1)) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
